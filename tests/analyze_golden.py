#!/usr/bin/env python3
"""Golden record of `analyze`: stdout digest and exit code per input case.

Two inputs, both of a 4-user, 3-day study:

* csv: `generate --users 4 --days 3`, read through `analyze --replay`. The
  cases are the clean trace plus every `--corrupt` kind x seeds 0-3 x the
  three read policies.
* wesg: the sealed directory `run --users 4 --days 3 --store-dir D` leaves,
  read through `analyze --store-dir`. The cases are the clean directory plus
  script-side byte damage (bit-flip, truncate, duplicate-span, swap-spans)
  to one segment file (`wesg-segment`, the seed picks which) or to the
  manifest (`wesg-manifest`) x seeds 0-3 x the three read policies.

Each line of the golden file holds one case:

    <input> <kind> <seed> <policy> exit=<code> sha256=<stdout digest> [# note]

Usage:
    analyze_golden.py CLI GOLDEN [--batch-sizes 1,7,4096] [--threads 1,4]
                      [--record]

Without --record, every case runs at every listed batch size and thread
count and must match its golden line. With --record, the cases run at the
first batch size and thread count and GOLDEN is rewritten (notes are
dropped).
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile

CSV_KINDS = ["bit-flip", "truncate", "duplicate-span", "swap-spans", "bad-enum",
             "bad-timestamp"]
BYTE_KINDS = ["bit-flip", "truncate", "duplicate-span", "swap-spans"]
POLICIES = ["strict", "skip-and-count", "best-effort"]
SEEDS = range(4)
MASK = (1 << 64) - 1


def cases():
    yield ("csv", "none", "0", "strict")
    for kind in CSV_KINDS:
        for seed in SEEDS:
            for policy in POLICIES:
                yield ("csv", kind, str(seed), policy)
    for policy in POLICIES:
        yield ("wesg", "none", "0", policy)
    for target in ("wesg-segment", "wesg-manifest"):
        for kind in BYTE_KINDS:
            for seed in SEEDS:
                for policy in POLICIES:
                    yield (target, kind, str(seed), policy)


class SplitMix64:
    """A fixed, seed-keyed generator so the damage never depends on Python."""

    def __init__(self, seed):
        self.state = seed & MASK

    def below(self, n):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return (z ^ (z >> 31)) % n if n > 0 else 0


def damage(data, kind, seed):
    """One deterministic corruption of `data`, the byte-level kinds of
    fault/injector.h."""
    rng = SplitMix64(seed)
    data = bytearray(data)
    if kind == "bit-flip":
        offset = rng.below(len(data))
        data[offset] ^= 1 << rng.below(8)
    elif kind == "truncate":
        del data[rng.below(len(data)):]
    elif kind == "duplicate-span":
        length = 1 + rng.below(min(len(data), 16))
        offset = rng.below(len(data) - length + 1)
        data[offset + length:offset + length] = data[offset:offset + length]
    elif kind == "swap-spans":
        length = 1 + rng.below(min(len(data) // 2, 16))
        a = rng.below(len(data) - 2 * length + 1)
        b = a + length + rng.below(len(data) - a - 2 * length + 1)
        data[a:a + length], data[b:b + length] = data[b:b + length], data[a:a + length]
    return bytes(data)


def run_case(cli, inputs, scratch, case, batch, threads):
    source, kind, seed, policy = case
    flags = ["--read-policy", policy, "--batch-size", str(batch), "--threads", str(threads)]
    if source == "csv":
        cmd = [cli, "analyze", "--replay", inputs["csv"]] + flags
        if kind != "none":
            cmd += ["--corrupt", kind, "--corrupt-seed", seed]
    else:
        store = os.path.join(scratch, "case")
        shutil.rmtree(store, ignore_errors=True)
        shutil.copytree(inputs["wesg"], store)
        if kind != "none":
            if source == "wesg-manifest":
                victim = "manifest.wesm"
            else:
                segments = sorted(n for n in os.listdir(store) if n.endswith(".wesg"))
                victim = segments[int(seed) % len(segments)]
            path = os.path.join(store, victim)
            with open(path, "rb") as f:
                data = f.read()
            with open(path, "wb") as f:
                f.write(damage(data, kind, int(seed)))
        cmd = [cli, "analyze", "--store-dir", store] + flags
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return proc.returncode, hashlib.sha256(proc.stdout).hexdigest()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("cli")
    parser.add_argument("golden")
    parser.add_argument("--batch-sizes", default="1")
    parser.add_argument("--threads", default="1")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    batches = [int(b) for b in args.batch_sizes.split(",")]
    thread_counts = [int(t) for t in args.threads.split(",")]

    with tempfile.TemporaryDirectory() as tmp:
        inputs = {"csv": os.path.join(tmp, "g.csv"), "wesg": os.path.join(tmp, "sealed")}
        with open(inputs["csv"], "wb") as out:
            subprocess.run([args.cli, "generate", "--users", "4", "--days", "3"],
                           stdout=out, stderr=subprocess.DEVNULL, check=True)
        subprocess.run([args.cli, "run", "--users", "4", "--days", "3", "--store-dir",
                        inputs["wesg"]], stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, check=True)

        if args.record:
            with open(args.golden, "w") as out:
                for case in cases():
                    code, digest = run_case(args.cli, inputs, tmp, case, batches[0],
                                            thread_counts[0])
                    out.write(" ".join(case) + f" exit={code} sha256={digest}\n")
            return 0

        golden = {}
        with open(args.golden) as f:
            for line in f:
                fields = line.split("#")[0].split()
                if len(fields) == 6:
                    golden[tuple(fields[:4])] = (fields[4], fields[5])
        failures = 0
        for case in cases():
            want = golden.get(case)
            if want is None:
                print("no golden line for", " ".join(case))
                failures += 1
                continue
            for batch in batches:
                for threads in thread_counts:
                    code, digest = run_case(args.cli, inputs, tmp, case, batch, threads)
                    got = (f"exit={code}", f"sha256={digest}")
                    if got != want:
                        print(f"{' '.join(case)} --batch-size {batch} --threads {threads}: "
                              f"got {got}, want {want}")
                        failures += 1
        print(f"{failures} mismatch(es) over {len(golden)} cases x {len(batches)} batch sizes"
              f" x {len(thread_counts)} thread counts")
        return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
