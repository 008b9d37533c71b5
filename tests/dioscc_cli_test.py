#!/usr/bin/env python3
"""Drives every `dioscc` compile mode and checks that they agree.

Usage: dioscc_cli_test.py <dioscc> <diosd> <kernels-dir>

Compiles the sample kernels as a single kernel, with --batch, with a
cold and then a warm --cache-dir (single kernel and batch), with
--remote against a live diosd child, and with --remote against a dead
socket (local fallback). Checks the `cache` label of every mode and
that egraph_nodes, extracted_cost and lvn_removed agree across modes.
Also checks a bad kernel inside a batch (exit 2, in-band failure
object), that --batch rejects the same flag combinations with and
without --remote, that --emit-dot dumps the e-graph the compile
saturated, and that --emit-spec, --emit-dot and --run print the same
thing on a cold compile, a warm --cache-dir hit and a live --remote
compile (served artifacts carry no spec, so dioscc lifts it itself).
"""
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time

FIGURES = ("egraph_nodes", "extracted_cost", "lvn_removed")
KERNELS = ("conv2d_3x5_3x3.ksp", "dot4.ksp", "vadd.ksp")
ENV = dict(os.environ, DIOS_NO_RULE_LINT="1")


def run(dioscc, *args, expect=0):
    proc = subprocess.run([dioscc, *args], capture_output=True, text=True,
                          env=ENV, timeout=120)
    assert proc.returncode == expect, \
        f"{args}: exit {proc.returncode}, want {expect}\n{proc.stderr}"
    return proc


def single(dioscc, path, *args):
    proc = run(dioscc, path, "--json", *args)
    return json.loads(proc.stdout), proc.stderr


def batch(dioscc, manifest, *args, expect=0):
    proc = run(dioscc, "--batch", manifest, "--json", *args, expect=expect)
    return json.loads(proc.stdout)


def artifact_views(dioscc, path, dot, *args):
    """What --emit-spec, --emit-dot and --run print for one compile.

    Leaves out the timing commentary, which differs between a fresh
    compile and a served one.
    """
    out = run(dioscc, path, "--emit-spec", "--emit-dot", dot, "--run",
              *args).stdout
    counts = re.search(r"; wrote e-graph \((\d+) nodes, (\d+) classes\)",
                       out)
    assert counts, out
    with open(dot) as f:
        dot_text = f.read()
    return out, {
        "spec": out.split("; lifted specification\n", 1)[1]
                   .split("\n", 1)[0],
        "dot counts": counts.groups(),
        "dot": dot_text,
        "run": out.split("; simulated cycles\n", 1)[1],
    }


def check_views(got, want, mode):
    for key, value in want.items():
        assert got[key] == value, \
            f"{mode}: {key} differs\n{got[key]!r}\nwant\n{value!r}"


def check(report, cache, want, mode):
    assert report["ok"], f"{mode}: {report}"
    assert report["cache"] == cache, \
        f"{mode}: cache {report['cache']!r}, want {cache!r}"
    for key in FIGURES:
        assert report[key] == want[key], \
            f"{mode} {report['kernel']}: {key} {report[key]} != {want[key]}"


def start_daemon(diosd, socket):
    proc = subprocess.Popen([diosd, "--socket", socket, "--jobs", "1"],
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, env=ENV)
    for _ in range(200):
        if os.path.exists(socket):
            return proc
        time.sleep(0.05)
    proc.kill()
    raise AssertionError("diosd never created its socket")


def stop_daemon(proc):
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def main():
    dioscc, diosd, kernels = sys.argv[1], sys.argv[2], sys.argv[3]
    paths = [os.path.join(kernels, k) for k in KERNELS]

    with tempfile.TemporaryDirectory() as tmp:
        manifest = os.path.join(tmp, "manifest.txt")
        with open(manifest, "w") as f:
            f.write("# sample kernels\n\n" + "\n".join(paths) + "\n")

        # Reference figures: a plain single-kernel compile of each.
        want = {}
        for path in paths:
            report, _ = single(dioscc, path)
            check(report, "none", report, "single")
            want[report["kernel"]] = report

        def check_batch(reports, cache, mode):
            assert len(reports) == len(paths), f"{mode}: {reports}"
            for report in reports:
                check(report, cache, want[report["kernel"]], mode)

        check_batch(batch(dioscc, manifest), "miss", "batch")

        # Single kernel: cold then warm --cache-dir.
        cache_dir = os.path.join(tmp, "single-cache")
        for cache, label in (("miss", "miss"), ("hit", "disk-hit")):
            report, err = single(dioscc, paths[0], "--cache-dir", cache_dir)
            check(report, cache, want[report["kernel"]], "cache-dir")
            assert f"; compile cache: {label}" in err, err

        # --emit-spec / --emit-dot / --run agree between a cold compile
        # and a cold then warm --cache-dir.
        dot = os.path.join(tmp, "views.dot")
        _, views = artifact_views(dioscc, paths[0], dot)
        cache_dir = os.path.join(tmp, "views-cache")
        for label in ("miss", "disk-hit"):
            out, got = artifact_views(dioscc, paths[0], dot,
                                      "--cache-dir", cache_dir)
            assert f"; compile cache: {label}" in out, out
            check_views(got, views, f"--cache-dir {label}")

        # Batch: cold then warm --cache-dir.
        cache_dir = os.path.join(tmp, "batch-cache")
        check_batch(batch(dioscc, manifest, "--cache-dir", cache_dir),
                    "miss", "batch cold cache")
        check_batch(batch(dioscc, manifest, "--cache-dir", cache_dir),
                    "hit", "batch warm cache")

        # --remote against a live daemon.
        socket = os.path.join(tmp, "diosd.sock")
        daemon = start_daemon(diosd, socket)
        try:
            report, _ = single(dioscc, paths[0], "--remote", socket)
            check(report, "remote", want[report["kernel"]], "remote")
            check_batch(batch(dioscc, manifest, "--remote", socket),
                        "remote", "batch remote")
            _, got = artifact_views(dioscc, paths[0], dot,
                                    "--remote", socket)
            check_views(got, views, "remote")
        finally:
            stop_daemon(daemon)

        # --remote against a dead socket: local fallback, same figures.
        dead = os.path.join(tmp, "dead.sock")
        report, err = single(dioscc, paths[0], "--remote", dead)
        check(report, "local-fallback", want[report["kernel"]], "fallback")
        assert "compiling locally" in err, err
        check_batch(batch(dioscc, manifest, "--remote", dead),
                    "local-fallback", "batch fallback")

        # A bad kernel inside a batch: exit 2, failure object in band.
        bad = os.path.join(tmp, "bad.ksp")
        with open(bad, "w") as f:
            f.write("(not a kernel)\n")
        bad_manifest = os.path.join(tmp, "bad-manifest.txt")
        with open(bad_manifest, "w") as f:
            f.write(f"{paths[1]}\n{bad}\n")
        for extra in ((), ("--remote", dead)):
            reports = batch(dioscc, bad_manifest, *extra, expect=2)
            assert len(reports) == 2, reports
            check(reports[0], "local-fallback" if extra else "miss",
                  want[reports[0]["kernel"]], f"bad batch {extra}")
            failure = reports[1]
            assert failure["ok"] is False, failure
            assert failure["user_error"] is True, failure
            assert failure["cache"] == "none", failure
            assert failure["kernel"] == bad, failure
            assert failure["error"], failure

        # --batch refuses per-kernel output flags, with or without
        # --remote.
        for extra in ((), ("--remote", dead)):
            proc = run(dioscc, "--batch", manifest, *extra, "--emit-c",
                       "--strict", expect=2)
            assert "--batch combines only with" in proc.stderr, proc.stderr

        # --emit-dot dumps the e-graph the compile saturated.
        dot = os.path.join(tmp, "graph.dot")
        for extra in ((), ("--strategy", "phased", "--iters", "2")):
            report, err = single(dioscc, paths[0], "--emit-dot", dot, *extra)
            match = re.search(r"; wrote e-graph \((\d+) nodes", err)
            assert match, err
            assert int(match.group(1)) == report["egraph_nodes"], \
                f"--emit-dot {extra}: dot has {match.group(1)} nodes, " \
                f"compile {report['egraph_nodes']}"

    print(f"ok: {len(paths)} kernels agree across single, batch, "
          f"cache-dir, remote and local-fallback modes")


if __name__ == "__main__":
    main()
