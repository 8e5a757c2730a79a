#!/usr/bin/env python3
"""symbolize.py <samples> [<threads>] [--top N]

Turns what scripts/prof/prof.c wrote into per-thread tables: *flat* (where
the sampled instruction was), *total* (anywhere on the sampled stack) and,
for the heaviest flat entries, their *callers*. <threads> holds "tid comm"
lines read from /proc/<pid>/task/*/comm mid-run; without it threads are
named by tid. Uses `nm` only; see README.md for what that costs in accuracy.
"""
import argparse
import bisect
import collections
import struct
import subprocess


def load_bias(path, lowest_start):
    """Run-time address minus link-time address for `path`."""
    with open(path, "rb") as elf:
        header = elf.read(64)
        if header[:4] != b"\x7fELF" or struct.unpack_from("<H", header, 16)[0] != 3:
            return 0  # ET_EXEC is linked at its run-time addresses
        phoff, = struct.unpack_from("<Q", header, 32)
        phentsize, phnum = struct.unpack_from("<HH", header, 54)
        for i in range(phnum):
            elf.seek(phoff + i * phentsize)
            entry = elf.read(phentsize)
            if struct.unpack_from("<I", entry, 0)[0] == 1:  # the first PT_LOAD
                return lowest_start - (struct.unpack_from("<Q", entry, 16)[0] & ~0xFFF)
    return lowest_start


def symbols(path):
    """Sorted (address, name) of the text symbols `nm` finds in `path`."""
    found = set()
    for flags in (["-C", "--defined-only"], ["-C", "-D", "--defined-only"]):
        listing = subprocess.run(["nm", *flags, path], capture_output=True, text=True).stdout
        for line in listing.splitlines():
            parts = line.split(" ", 2)
            if len(parts) == 3 and parts[1] in "tTwWiI":
                found.add((int(parts[0], 16), parts[2]))
    return sorted(found)


class Image:
    def __init__(self, path, lowest_start):
        self.path, self.name = path, path.rsplit("/", 1)[-1]
        try:
            self.bias, self.table = load_bias(path, lowest_start), symbols(path)
        except OSError:
            self.bias, self.table = lowest_start, []
        self.addresses = [address for address, _ in self.table]

    def resolve(self, pc):
        at = bisect.bisect_right(self.addresses, pc - self.bias) - 1
        return self.table[at][1] if at >= 0 else self.name  # no symbols: one entry per image


def main():
    parser = argparse.ArgumentParser(usage=__doc__)
    parser.add_argument("samples")
    parser.add_argument("threads", nargs="?")
    parser.add_argument("--top", type=int, default=25, help="rows per table")
    args = parser.parse_args()
    ranges, lowest, samples, header = [], {}, [], ""
    for line in open(args.samples):
        kind, _, rest = line.rstrip("\n").partition(" ")
        if kind == "map":
            fields = rest.split()
            if len(fields) >= 6:  # a file, or a kernel-made region such as [vdso]
                start, end = (int(x, 16) for x in fields[0].split("-"))
                lowest[fields[5]] = min(start, lowest.get(fields[5], start))
                if "x" in fields[1]:
                    ranges.append((start, end, fields[5]))
        elif kind == "sample":
            tid, *pcs = rest.split()
            samples.append((int(tid), [int(pc, 16) for pc in pcs]))
        else:
            header = line.strip()
    ranges.sort()
    starts = [start for start, _, _ in ranges]
    images, main_image = {}, ranges[0][2] if ranges else None

    def locate(pc):
        at = bisect.bisect_right(starts, pc) - 1
        if at < 0 or pc >= ranges[at][1]:
            return None
        path = ranges[at][2]
        if path not in images:
            images[path] = Image(path, lowest[path])
        return images[path]

    names = {}
    if args.threads:
        for line in open(args.threads):
            tid, _, comm = line.strip().partition(" ")
            names[int(tid)] = comm
    flat, total, callers = (collections.defaultdict(collections.Counter) for _ in range(3))
    per_thread = collections.Counter()
    for tid, pcs in samples:
        leaf_image = locate(pcs[0])
        leaf = leaf_image.resolve(pcs[0]) if leaf_image else f"[unmapped {pcs[0]:#x}]"
        # The word at RSP is a return address only where the leaf keeps no
        # frame: outside the harness, which is built with frame pointers.
        chain = pcs[2:] if leaf_image and leaf_image.path == main_image else pcs[1:]
        stack = [leaf]
        for pc in chain:
            image = locate(pc - 1)
            if image:
                stack.append(image.resolve(pc - 1))
        thread = names.get(tid, f"tid-{tid}")
        per_thread[thread] += 1
        flat[thread][leaf] += 1
        total[thread].update(set(stack))
        callers[thread][(leaf, next((f for f in stack[1:] if f != leaf), "-"))] += 1
    print(f"# {header}; {len(samples)} samples symbolised")
    for thread, count in per_thread.most_common():
        if 100 * count < len(samples):  # short-lived helpers (dialers, set-up): no tables
            print(f"\n== thread {thread}: {count} samples")
            continue
        print(f"\n== thread {thread}: {count} samples ({100 * count / len(samples):.1f} % of all)")
        for title, table in (("flat", flat), ("total", total)):
            print(f"-- {title}")
            for name, n in table[thread].most_common(args.top):
                print(f"{n:8d} {100 * n / count:5.1f} %  {name}")
        print("-- callers of the heaviest flat entries")
        for name, n in flat[thread].most_common(args.top // 2):
            print(f"{n:8d}  {name}")
            mine = [(c, k) for (l, c), k in callers[thread].items() if l == name]
            for caller, k in sorted(mine, key=lambda item: -item[1])[:4]:
                print(f"{k:14d}  <- {caller}")


if __name__ == "__main__":
    main()
