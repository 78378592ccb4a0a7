#!/usr/bin/env python3
"""Replay one scripted wire session against `glodyne serve` and write
every reply, one per line, so two builds can be compared with `cmp`.

The server runs pinned to one core (`taskset -c 0`), where SGNS trains
sequentially and every epoch is deterministic, on a free local port,
warm-started from a seeded generated edge file and driven with
`--policy manual`. Extra arguments after `--` go to `serve` verbatim:

    scripts/wire_replay.py --bin target/release/glodyne --out a.txt
    scripts/wire_replay.py --bin target/release/glodyne --out b.txt -- \\
        --ann --cells 8 --nprobe 2 --sq8

The session: the served epoch is read once as spawned, then three
rounds of (ingest 60 edges, flush) are each followed by the same reads:
`query`, exact `nearest` and ANN `nearest` at the default, 1, 2 and 1000
probes, `nearest_batch` in the same modes (batches with repeats, unknown
nodes, a single probe and an all-unknown batch), and `stats`; then
`shutdown`. Probes include the unknown node 999. `stats` replies are
re-serialised without their wall-clock and scheduling keys (`build_ms`,
`ann_build_ms`, `last_fsync_ms`, `stalled_ms`, `queue_high_water`); every
other reply is written as received.

`--cold` starts the server without the warm-start file, so the first
reads see epoch 0 (an empty embedding, and with `--ann` an empty index)
and the first flush trains the offline stage.

For a restart check, pass `-- --data-dir D --fsync flush
--snapshot-every 1` and run the script twice on the same `D`: the
second run recovers the first run's lineage.

Standard library only.
"""

import argparse
import json
import os
import random
import socket
import subprocess
import sys
import tempfile
import time

MASKED_STATS_KEYS = {
    "build_ms",
    "ann_build_ms",
    "last_fsync_ms",
    "stalled_ms",
    "queue_high_water",
}

SERVE_FLAGS = [
    "--policy", "manual",
    "--dim", "32",
    "--walks", "4",
    "--walk-length", "20",
    "--seed", "7",
]

PROBES = [0, 5, 17, 999]
BATCHES = [[0, 5, 5, 17], [999, 3, 999], [7], [998, 999]]
ANN_NPROBES = [None, 1, 2, 1000]


def write_edges(path, seed):
    """A seeded warm-start stream: 900 draws over 60 nodes."""
    rng = random.Random(seed)
    with open(path, "w") as f:
        t = 0
        for _ in range(900):
            a, b = rng.randrange(60), rng.randrange(60)
            if a != b:
                f.write(f"{a} {b} {t}\n")
                t += 1


def ingest_rounds(seed, rounds=3, per_round=60):
    """Seeded online edges that grow the graph to 80 nodes."""
    rng = random.Random(seed + 1)
    t = 100_000
    out = []
    for _ in range(rounds):
        edges = []
        while len(edges) < per_round:
            a, b = rng.randrange(80), rng.randrange(80)
            if a != b:
                edges.append([a, b, t])
                t += 1
        out.append(edges)
    return out


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def connect(port, proc, timeout_s):
    deadline = time.monotonic() + timeout_s
    while True:
        if proc.poll() is not None:
            sys.exit(f"server exited early with status {proc.returncode}")
        try:
            return socket.create_connection(("127.0.0.1", port), timeout=120)
        except OSError:
            if time.monotonic() > deadline:
                sys.exit(f"server did not accept on port {port} within {timeout_s}s")
            time.sleep(0.1)


def mask(value):
    if isinstance(value, dict):
        return {k: mask(v) for k, v in value.items() if k not in MASKED_STATS_KEYS}
    if isinstance(value, list):
        return [mask(v) for v in value]
    return value


def requests(rounds):
    """The scripted session, as (request, is_stats) pairs."""
    for edges in [None] + rounds:
        if edges is not None:
            yield {"cmd": "ingest", "edges": edges}, False
            yield {"cmd": "flush"}, False
        for node in (5, 999):
            yield {"cmd": "query", "node": node}, False
        for node in PROBES:
            yield {"cmd": "nearest", "node": node, "k": 5}, False
            for nprobe in ANN_NPROBES:
                req = {"cmd": "nearest", "node": node, "k": 5, "mode": "ann"}
                if nprobe is not None:
                    req["nprobe"] = nprobe
                yield req, False
        for nodes in BATCHES:
            yield {"cmd": "nearest_batch", "nodes": nodes, "k": 4}, False
            for nprobe in ANN_NPROBES:
                req = {"cmd": "nearest_batch", "nodes": nodes, "k": 4, "mode": "ann"}
                if nprobe is not None:
                    req["nprobe"] = nprobe
                yield req, False
        yield {"cmd": "stats"}, True
    yield {"cmd": "shutdown"}, False


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bin", required=True, help="path to the glodyne binary")
    parser.add_argument("--out", required=True, help="file the replies are written to")
    parser.add_argument("--seed", type=int, default=4, help="edge generator seed")
    parser.add_argument("--log", help="file for the server's own output (default: discarded)")
    parser.add_argument("--cold", action="store_true", help="serve without the warm-start file")
    parser.add_argument("--start-timeout", type=float, default=120.0)
    args, extra = parser.parse_known_args()
    if extra[:1] == ["--"]:
        extra = extra[1:]

    with tempfile.TemporaryDirectory(prefix="wire-replay-") as tmp:
        edges = os.path.join(tmp, "edges.txt")
        write_edges(edges, args.seed)
        port = free_port()
        cmd = ["taskset", "-c", "0", args.bin, "serve", "--bind", f"127.0.0.1:{port}"]
        if not args.cold:
            cmd += ["--input", edges]
        cmd += SERVE_FLAGS + extra
        log = open(args.log, "w") if args.log else subprocess.DEVNULL
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT)
        try:
            conn = connect(port, proc, args.start_timeout)
            wire = conn.makefile("rw")
            with open(args.out, "w") as out:
                for req, is_stats in requests(ingest_rounds(args.seed)):
                    wire.write(json.dumps(req, separators=(",", ":")) + "\n")
                    wire.flush()
                    reply = wire.readline()
                    if not reply:
                        sys.exit(f"connection closed after {req['cmd']}")
                    reply = reply.rstrip("\n")
                    if is_stats:
                        reply = json.dumps(mask(json.loads(reply)), separators=(",", ":"))
                    out.write(reply + "\n")
            conn.close()
            status = proc.wait(timeout=60)
            if status != 0:
                sys.exit(f"server exited with status {status}")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            if log is not subprocess.DEVNULL:
                log.close()


if __name__ == "__main__":
    main()
