#!/usr/bin/env python3
"""Prints the benchmark job's Markdown summary tables.

Reads the BENCH_*.json files that the CI benchmark job writes into the
working directory (google-benchmark output from bench_micro, and the
MPCSPAN_BENCH_JSON results of bench_t8_primitives, bench_query and
bench_serve) and prints one table per probe to stdout:

    python3 tools/bench_summary.py >> "$GITHUB_STEP_SUMMARY"

Pass a directory to read the files from somewhere else.
"""
import json
import os
import sys


def load(directory, name):
    with open(os.path.join(directory, name)) as f:
        return json.load(f)


def iteration_dispatch(d):
    print("### Growth-iteration wave dispatch (registered kernels, by shard count)\n")
    print("| shards | time/wave |")
    print("|---|---|")
    for b in load(d, "BENCH_micro_iteration_dispatch.json")["benchmarks"]:
        shards = b["name"].split("/")[1]
        print(f"| {shards} | {b['real_time']:.2f} {b['time_unit']} |")
    print()


def cross_shard_exchange(d):
    print("### Cross-shard exchange (bench_micro, shm ring vs tcp loopback)\n")
    print("| shards | transport | time/round | cross-shard bytes/s |")
    print("|---|---|---|---|")
    for b in load(d, "BENCH_micro_exchange.json")["benchmarks"]:
        shards = b["name"].split("/")[1]
        bps = b.get("bytes_per_second", 0.0)
        rate = f"{bps / 1e9:.2f} GB/s" if bps else "-"
        print(f"| {shards} | {b.get('label', '?')} | "
              f"{b['real_time']:.1f} {b['time_unit']} | {rate} |")
    print()


def arena_churn(d):
    print("### BlockStore round churn (bench_micro, arena vs heap store)\n")
    print("| store | time/round |")
    print("|---|---|")
    for b in load(d, "BENCH_micro_arena_churn.json")["benchmarks"]:
        print(f"| {b.get('label', '?')} | {b['real_time']:.1f} {b['time_unit']} |")
    print()


def sketch_build(d):
    print("### Sketch build, 1 lane vs N lanes (bench_micro BM_SketchBuild)\n")
    print("| 1 lane | N lanes | speedup |")
    print("|---|---|---|")
    times = []
    for tag in ("lanes1", "lanesN"):
        rows = [b for b in load(d, f"BENCH_micro_{tag}.json")["benchmarks"]
                if b["name"].startswith("BM_SketchBuild")]
        times.append((rows[0]["real_time"], rows[0]["time_unit"]))
    (one, unit), (many, _) = times
    print(f"| {one:.1f} {unit} | {many:.1f} {unit} | {one / many:.2f}x |")
    print()


def pool_scaling(d):
    print("### Pool scaling (bench_t8_primitives, sort_ms by config)\n")
    print("| n | gamma | 1 lane | N lanes | N shards |")
    print("|---|---|---|---|---|")
    tags = ("lanes1", "lanesN", "shardsN")
    runs = {
        tag: {(r["n"], r["gamma"]): r
              for r in load(d, f"BENCH_t8_{tag}.json")["results"]}
        for tag in tags
    }
    for key in runs["lanes1"]:
        cells = [f"{runs[t][key]['sort_ms']:.1f} ms" for t in tags]
        print(f"| {int(key[0])} | {key[1]} | " + " | ".join(cells) + " |")
    print()


def query_path(d):
    print("### Query path (bench_query, per-tier latency + tiered throughput)\n")
    rows = load(d, "BENCH_query_path.json")["results"]
    tiers = ["sketch", "spanner-cache", "exact"]
    print("| tier | queries | p50 | p99 |")
    print("|---|---|---|---|")
    for r in rows:
        if "tier" in r:
            t = int(r["tier"])
            name = tiers[t] if t < len(tiers) else str(t)
            print(f"| {name} | {int(r['queries'])} | "
                  f"{r['p50_us']:.2f} us | {r['p99_us']:.2f} us |")
    print()
    print("| client threads | qps | p50 | p99 |")
    print("|---|---|---|---|")
    for r in rows:
        if "threads" in r:
            print(f"| {int(r['threads'])} | {r['qps']:.0f} | "
                  f"{r['p50_us']:.2f} us | {r['p99_us']:.2f} us |")
    print()


def serving_daemon(d):
    print("### Serving daemon (bench_serve, end-to-end wire path)\n")
    print("| client threads | deadline | qps | p50 | p99 | degraded |")
    print("|---|---|---|---|---|---|")
    for r in load(d, "BENCH_serve.json")["results"]:
        deadline = ("unbounded" if r["deadline_ms"] < 0
                    else f"{int(r['deadline_ms'])} ms")
        print(f"| {int(r['threads'])} | {deadline} | {r['qps']:.0f} | "
              f"{r['p50_us']:.2f} us | {r['p99_us']:.2f} us | "
              f"{100 * r['degraded_frac']:.1f}% |")


def main():
    directory = sys.argv[1] if len(sys.argv) > 1 else "."
    for table in (iteration_dispatch, cross_shard_exchange, arena_churn,
                  sketch_build, pool_scaling, query_path, serving_daemon):
        table(directory)


if __name__ == "__main__":
    main()
