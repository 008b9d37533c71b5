#!/usr/bin/env python3
"""Checks the per-layer timing fields of `dioscc --json`.

Usage: dioscc_json_test.py <dioscc> <kernel.ksp>

Compiles one kernel with --json and checks that the report carries the
per-layer seconds and the per-iteration saturation profile, and that the
iterations' search + apply + rebuild times fit inside saturation_seconds.
"""
import json
import subprocess
import sys


def main():
    dioscc, kernel = sys.argv[1], sys.argv[2]
    proc = subprocess.run([dioscc, kernel, "--json"], capture_output=True,
                          text=True, check=True)
    report = json.loads(proc.stdout)

    layers = ["total_seconds", "lift_seconds", "saturation_seconds",
              "extract_seconds", "backend_seconds"]
    for key in layers:
        assert isinstance(report.get(key), float), f"missing {key}"
        assert report[key] >= 0.0, f"negative {key}"

    stats = report.get("iteration_stats")
    assert isinstance(stats, list) and stats, "missing iteration_stats"
    assert len(stats) == report["iterations"], \
        "one iteration_stats entry per runner iteration"
    fields = ["search_seconds", "apply_seconds", "rebuild_seconds",
              "nodes_after", "classes_after"]
    for it in stats:
        for key in fields:
            assert key in it, f"iteration entry lacks {key}"
    assert stats[-1]["nodes_after"] == report["egraph_nodes"]
    assert stats[-1]["classes_after"] == report["egraph_classes"]

    spent = sum(it["search_seconds"] + it["apply_seconds"] +
                it["rebuild_seconds"] for it in stats)
    # Every figure is printed rounded to 1e-6 s.
    slack = 1e-6 * (3 * len(stats) + 1)
    assert spent <= report["saturation_seconds"] + slack, \
        f"iterations sum to {spent} s > saturation_seconds " \
        f"{report['saturation_seconds']} s"
    print(f"ok: {len(stats)} iterations, {spent:.6f} s of "
          f"{report['saturation_seconds']:.6f} s saturation")


if __name__ == "__main__":
    main()
