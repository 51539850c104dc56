#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/tests/test_perfbench.py

Run from the root of a checkout. Builds the benchmark like run.py does
and runs it for one second per case; one case builds a second copy of
the checkout. The whole file takes about two minutes on a 4-core host.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
BUILD_ROOT = os.path.join(
    ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(*args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)


def shared_target_env():
    """The environment with $CARGO_TARGET_DIR set to this checkout's build
    root as an absolute path, so another checkout can share it."""
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = os.path.abspath(BUILD_ROOT)
    return env


class OtherCheckout:
    """A temporary checkout holding BENCHMARK.json and perfbench/, plus
    src/ when `with_sources`. On exit it removes itself and any build tree
    it added under BUILD_ROOT."""

    def __init__(self, name, with_sources):
        self.path = os.path.join(BUILD_ROOT, name)
        self.with_sources = with_sources

    def __enter__(self):
        os.makedirs(BUILD_ROOT, exist_ok=True)
        self.before = set(os.listdir(BUILD_ROOT))
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), self.path)
        for top in ("perfbench", "src") if self.with_sources else (
                "perfbench",):
            shutil.copytree(os.path.join(ROOT, top),
                            os.path.join(self.path, top))
        return self

    def __exit__(self, *exc):
        for name in set(os.listdir(BUILD_ROOT)) - self.before:
            shutil.rmtree(os.path.join(BUILD_ROOT, name), ignore_errors=True)
        shutil.rmtree(self.path, ignore_errors=True)


def bench(workload, seed, trace):
    proc = run(RUN, "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace))
    if proc.returncode != 0:
        raise AssertionError("exit %d\n%s%s" % (proc.returncode, proc.stdout,
                                                proc.stderr))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digests = dict(re.findall(r"^op (\S+)\s+best_ms=\s*\S+ digest=(\S+)",
                              proc.stdout, re.M))
    cells = dict(re.findall(r"^op (\S+)\s.* cells_digest=(\S+)",
                            proc.stdout, re.M))
    return result, digests, cells


class CommandLine(unittest.TestCase):
    def assert_rejected(self, *args):
        proc = run(RUN, *args)
        self.assertEqual(proc.returncode, 2, proc.stdout + proc.stderr)
        self.assertIn("perfbench:", proc.stderr)
        self.assertNotIn('"metrics"', proc.stdout)

    def test_bad_workload(self):
        self.assert_rejected("--workload", "nope", "--seed", "1",
                             "--seconds", "1", "--trace", "0")

    def test_bad_seeds(self):
        for seed in ("-1", "abc", "1.5", "", "18446744073709551616"):
            with self.subTest(seed=seed):
                self.assert_rejected("--workload", "fuzz", "--seed", seed,
                                     "--seconds", "1", "--trace", "0")

    def test_bad_flags(self):
        base = ["--workload", "fuzz", "--seed", "1", "--seconds", "1",
                "--trace", "0"]
        self.assert_rejected(*base, "--bogus", "1")
        self.assert_rejected(*base[:-2], "--trace", "2")
        self.assert_rejected(*base[:4], "--seconds", "0", "--trace", "0")
        self.assert_rejected(*base[:-1])
        self.assert_rejected(*base[2:])


class Results(unittest.TestCase):
    def test_metric_names_match_declaration(self):
        declared = {
            0: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
            1: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
        }
        for workload in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    result, _, _ = bench(workload, 5, trace)
                    self.assertEqual(
                        sorted(result),
                        ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    emitted = {k: v["unit"]
                               for k, v in result["metrics"].items()}
                    self.assertEqual(emitted, declared[trace])
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)

    def test_same_seed_same_digests_and_counts(self):
        exact = [m["name"] for m in BENCHMARK["per_layer"]
                 if m["unit"] == "count"]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, first_digests, first_cells = bench(workload, 11, 1)
                second, second_digests, second_cells = bench(workload, 11, 1)
                self.assertTrue(first_digests)
                self.assertEqual(first_digests, second_digests)
                # Traced fuzz seeds also digest every cell's statistics.
                self.assertEqual(bool(first_cells), workload == "fuzz")
                self.assertEqual(first_cells, second_cells)
                for name in exact:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)
                # The untraced run uses check_seed where the traced one
                # recomposes it; both must give the same digests. The
                # traced run adds the sampled cells' bare functional runs.
                _, untraced_digests, _ = bench(workload, 11, 0)
                self.assertEqual(untraced_digests,
                                 {k: v for k, v in first_digests.items()
                                  if not k.endswith("/functional")})

    def test_other_seed_other_inputs(self):
        _, a, _ = bench("fuzz", 1, 0)
        _, b, _ = bench("fuzz", 2, 0)
        self.assertNotEqual(a, b)


class Checkouts(unittest.TestCase):
    def test_fails_without_sources(self):
        # The shared build root already holds this checkout's built tree,
        # which the bare checkout must not pick up.
        self.assertEqual(run(RUN, "--help").returncode, 0)
        with OtherCheckout("bare-checkout", with_sources=False) as bare:
            proc = run("perfbench/run.py", "--workload", "fuzz", "--seed",
                       "1", "--seconds", "1", "--trace", "0",
                       cwd=bare.path, env=shared_target_env())
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)

    def test_checkouts_sharing_target_dir_build_their_own_sources(self):
        marker = "other-checkout-marker"
        with OtherCheckout("other-checkout", with_sources=True) as other:
            main_cc = os.path.join(other.path, "perfbench", "src", "main.cc")
            with open(main_cc) as f:
                text = f.read()
            self.assertIn('"usage: perfbench ', text)
            with open(main_cc, "w") as f:
                f.write(text.replace('"usage: perfbench ',
                                     '"usage: perfbench [%s] ' % marker))
            theirs = run("perfbench/run.py", "--help", cwd=other.path,
                         env=shared_target_env())
            ours = run(RUN, "--help", env=shared_target_env())
        self.assertEqual(theirs.returncode, 0, theirs.stderr)
        self.assertEqual(ours.returncode, 0, ours.stderr)
        self.assertIn(marker, theirs.stdout)
        self.assertNotIn(marker, ours.stdout)


if __name__ == "__main__":
    unittest.main()
