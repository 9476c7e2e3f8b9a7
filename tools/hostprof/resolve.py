#!/usr/bin/env python3
"""Folds a hostprof address histogram into per-function and per-line tables,
or names the frames of a heapprof report.

    resolve.py <binary> <hostprof-out | heapprof-out> [rows]

<binary> must carry line tables (CARGO_PROFILE_RELEASE_DEBUG=line-tables-only
changes no code). Every address goes through `addr2line -fCi`; an address
inside inlined code belongs, in the first table, to the innermost function
(the source that runs) and, in the second, to the outermost (the symbol that
holds it — what `nm` lists). With a `hostprof step` histogram the counts are
exact instruction counts and a `calls` column (hits on a symbol's first
address) gives exact call counts; with `hostprof sample` they are sample
counts.

A heapprof report ("# heap") prints as the peak live heap, then each large
block live at that peak with its allocation stack, innermost first: one line
per call frame, naming the symbol (what `nm` lists) and the source line of
the call in it, up to [rows] frames a block; frames of the global allocator
and `alloc::` (RawVec growth) are left out.
"""
import collections
import re
import subprocess
import sys

binary, prof = sys.argv[1], sys.argv[2]
rows = int(sys.argv[3]) if len(sys.argv) > 3 else 25
mode, *histogram = open(prof).read().splitlines()


def frames_of(addrs):
    """Each address's (function, file:line) frames, innermost first."""
    # `-a` prints each address before its frames: (function, file:line)
    # pairs, innermost first.
    text = subprocess.run(
        ["addr2line", "-afCi", "-e", binary], input="".join(f"{a:#x}\n" for a in addrs),
        capture_output=True, text=True, check=True).stdout.splitlines()
    frames, addr = collections.defaultdict(list), None
    for i, line in enumerate(text):
        if re.fullmatch(r"0x[0-9a-f]+", line):
            addr, start = int(line, 16), i
        elif (i - start) % 2 == 1:
            where = re.sub(r" \(discriminator \d+\)", "", text[i + 1])
            frames[addr].append((line, "/".join(where.split("/")[-2:])))
    return frames


if mode == "# heap":
    _, peak, count = histogram[0].split()
    blocks = [list(map(int, b.split()[:1])) + [int(a, 16) for a in b.split()[1:]] for b in histogram[1:]]
    frames = frames_of(sorted({a for b in blocks for a in b[1:]}))
    # addr2line names an address's first frame by its symbol and places its
    # last, outermost frame at the call inside that symbol.
    calls = {a: (f[0][0], f[-1][1]) for a, f in frames.items()}
    allocator = re.compile(r"<?alloc::|__rust|__rdl")
    print(f"peak {int(peak):,} live bytes in {int(count):,} blocks; {len(blocks)} large ones live then:")
    for size, *stack in blocks:
        print(f"\n{size:>10,} B  {100 * size / int(peak):5.1f} %")
        named = [calls[a] for a in stack if not allocator.match(calls[a][0])]
        for symbol, where in named[:rows]:
            print(f"              {symbol[:90]}  {where}")
    sys.exit()

exact = mode == "# step"
hits = {int(a, 16): int(n) for a, n in map(str.split, histogram)}
total = sum(hits.values())
outside = hits.pop(0, 0)
frames = frames_of(hits)

starts = set()
for line in subprocess.run(["nm", "-C", binary], capture_output=True, text=True).stdout.splitlines():
    parts = line.split(None, 2)
    if len(parts) == 3 and parts[1] in "tTwW":
        starts.add(int(parts[0], 16))

inner, outer, lines, calls = (collections.Counter() for _ in range(4))
for a, n in hits.items():
    stack = frames[a] or [("??", "??")]
    inner[stack[0][0]] += n
    outer[stack[-1][0]] += n
    lines[f"{stack[0][1]}  ({stack[0][0]})"] += n
    if a in starts:
        calls[stack[-1][0]] += n


def table(title, counter, extra=None):
    print(f"\n{title}")
    for name, n in counter.most_common(rows):
        tail = f"  calls {extra[name]}" if extra and extra[name] else ""
        print(f"{100 * n / total:6.2f}%  {n:>9}  {name[:110]}{tail}")


print(f"{total} hits, {outside} ({100 * outside / max(total, 1):.1f}%) outside the executable")
table("by function (innermost inlined frame)", inner)
table("by symbol (outermost frame)", outer, calls if exact else None)
table("by line", lines)
