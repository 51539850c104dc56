#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload detailed|sampled|fuzz --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout. Configures and builds perfbench/ (the
simulator library from src/ plus the perfbench binary) in a Release build
under $CARGO_TARGET_DIR (default .bench_build), in a directory named after
the checkout's path, so checkouts that share one absolute $CARGO_TARGET_DIR
never share a build tree. Then runs the binary with
the given flags. The binary prints its report and, as the last line of
stdout, one JSON object with the keys correct, attempted, failed and
metrics. Bad flags exit with 2; a failed build exits with 1 and prints no
result. See perfbench/README.md.
"""
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def source_stamp():
    """git commit when the checkout is a git repository, plus a digest of
    every file the benchmark builds from, which identifies the code in a
    checkout without git metadata."""
    commit = "none"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10).stdout.strip() or "none"
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        tree = sorted(os.walk(os.path.join(ROOT, top)))
        for dirpath, _, filenames in tree:
            for name in sorted(filenames):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "git=%s src_sha256=%s" % (commit, digest.hexdigest()[:16])


def build_dir(build_root):
    """This checkout's build tree under `build_root`."""
    tag = hashlib.sha256(ROOT.encode()).hexdigest()[:12]
    return os.path.join(build_root, "perfbench-" + tag)


def build(build_dir):
    """Configures (cheap when current, and cmake refuses a tree configured
    from other sources), then builds incrementally."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", jobs]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main(argv):
    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    tree = build_dir(build_root)
    if not build(tree):
        return 1
    cmd = [os.path.join(tree, "perfbench"),
           "--source-stamp", source_stamp(),
           "--out-dir", os.path.join(build_root, "out"), *argv]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
