#!/usr/bin/env python3
"""Golden record of `analyze`: stdout digest and exit code per input case.

The inputs are `generate --users 4 --days 3` traces in CSV and WETR. The
cases are the clean input plus every `--corrupt` kind x seeds 0-3 x the
three read policies. Each line of the golden file holds one case:

    <format> <kind> <seed> <policy> exit=<code> sha256=<stdout digest> [# note]

Usage:
    analyze_golden.py CLI GOLDEN [--batch-sizes 1,7,4096] [--record]

Without --record, every case runs at every listed batch size and must match
its golden line. With --record, the cases run at the first batch size and
GOLDEN is rewritten (notes are dropped).
"""
import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

KINDS = ["bit-flip", "truncate", "duplicate-span", "swap-spans", "bad-enum", "bad-timestamp"]
POLICIES = ["strict", "skip-and-count", "best-effort"]
SEEDS = range(4)


def cases():
    for fmt in ("csv", "bin"):
        yield (fmt, "none", "0", "strict")
        for kind in KINDS:
            for seed in SEEDS:
                for policy in POLICIES:
                    yield (fmt, kind, str(seed), policy)


def run_case(cli, inputs, case, batch):
    fmt, kind, seed, policy = case
    cmd = [cli, "analyze", "--replay", inputs[fmt], "--read-policy", policy,
           "--batch-size", str(batch)]
    if kind != "none":
        cmd += ["--corrupt", kind, "--corrupt-seed", seed]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return proc.returncode, hashlib.sha256(proc.stdout).hexdigest()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("cli")
    parser.add_argument("golden")
    parser.add_argument("--batch-sizes", default="1")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    batches = [int(b) for b in args.batch_sizes.split(",")]

    with tempfile.TemporaryDirectory() as tmp:
        inputs = {}
        for fmt in ("csv", "bin"):
            inputs[fmt] = os.path.join(tmp, "g." + fmt)
            with open(inputs[fmt], "wb") as out:
                subprocess.run([args.cli, "generate", "--users", "4", "--days", "3",
                                "--format", fmt], stdout=out, stderr=subprocess.DEVNULL,
                               check=True)

        if args.record:
            with open(args.golden, "w") as out:
                for case in cases():
                    code, digest = run_case(args.cli, inputs, case, batches[0])
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
                code, digest = run_case(args.cli, inputs, case, batch)
                got = (f"exit={code}", f"sha256={digest}")
                if got != want:
                    print(f"{' '.join(case)} --batch-size {batch}: got {got}, want {want}")
                    failures += 1
        print(f"{failures} mismatch(es) over {len(golden)} cases x {len(batches)} batch sizes")
        return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
