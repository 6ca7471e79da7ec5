"""The benchmark's workloads: seeded query lists, how to run a query, and the
invariants each answer must satisfy.

A query is a tuple whose first item names its kind. `build(workload, seed)`
turns a seed into one pass's queries; the same seed always gives the same
list. Query costs here grow steeply with the inputs (the W lower estimate
is about cubic in n, witness families double with n), so the seed moves
inputs only where the cost stays put: exponents sit on a fixed grid with a
small seeded jitter, counts get a random mantissa, and each slot draws its
pattern or lattice from alternatives of about equal cost. Passes for
different seeds then do about the same work, and their timings can be
compared. In cli-session the seed also shuffles the order of the
commands; the in-process workloads keep a fixed order, because there a
query's cost depends on what ran before it.

Invariant checks run after the timed loop and use only the benchmark's own
arithmetic (math.comb, direct counting) or a second library route, never
the route under test alone.
"""

from __future__ import annotations

import math
import random
from decimal import ROUND_HALF_EVEN, Context, Decimal

WORKLOADS = ("cli-session", "bignum-adjoint", "small-exact")

# Inputs found while sizing the workloads that cannot go in a timed pass.
# Measured on 2 cores of an Intel Xeon, Python 3.11.7, numpy 2.4.6.
EXCLUDED = (
    ("lattice_genset.gmin_bruteforce(dn(w)^2)", "81 elements: 261 s"),
    ("lattice_genset.gmin_bruteforce(<64-element lattices>)",
     "dn(antichain:2)^3 14 s, chain(2)^6 11 s, chain(4)^3 50 s; chain(7)^2 "
     "(49 elements) 92 s"),
    ("oracle.sp_exhaustive(antichain:2, 6)",
     "no result after about 9 minutes: the clique search blows up"),
    ("oracle.sp_exhaustive(w, 6)",
     "6.4 s, more than the rest of a small-exact pass; the oracle would "
     "dominate it"),
    ("asp w / gmin dn-w with k above about 1e614 (answers past n = 2048)",
     "the galloping search then evaluates lower_w(4096): 2.4 s in-process, "
     "one such query is 3-6 s; `sperner asp w 1e700` takes 8.9 s"),
)


def _grid(rng: random.Random, lo: int, hi: int, count: int,
          jitter: int) -> list[int]:
    """`count` points spread evenly over [lo, hi], each moved by a seeded
    offset of at most `jitter`."""
    step = (hi - lo) / count
    return [min(hi, max(lo, round(lo + (i + 0.5) * step)
                        + rng.randint(-jitter, jitter)))
            for i in range(count)]


def _k_text(m: int, e: int) -> str:
    return f"{m}e{e}" if e else str(m)


def _count(rng: random.Random, e: int) -> str:
    """A count m * 10**e, m in 1..9, written as the CLI accepts it."""
    return _k_text(rng.randint(1, 9), e)


# --- cli-session --------------------------------------------------------------

_SMALL_PATTERNS = ("chain:1", "chain:2", "chain:3", "chain:4", "chain:5",
                   "antichain:2", "antichain:3", "antichain:4", "powerset:2")
_ALL_PATTERNS = ("v", "w") + _SMALL_PATTERNS
_TINY_LATTICES = ("v", "w", "chain:2", "chain:3", "antichain:2",
                  "antichain:3", "powerset:2")
_ORACLE_PATTERNS = ("v", "w", "chain:2", "chain:3", "antichain:2",
                    "powerset:2")


def _witness_arg(rng: random.Random) -> tuple[str, int]:
    """A witness family below 300 copies, so certify stays on pure Python."""
    pattern = rng.choice(("v", "w", "chain:1", "chain:2", "chain:3",
                          "antichain:2", "powerset:2"))
    if pattern == "w":
        return pattern, rng.randint(6, 12)
    if pattern == "v":
        return pattern, rng.randint(6, 11)
    return pattern, _pattern_dim(pattern) + rng.randint(4, 10)


def _cli_session(rng: random.Random) -> list[tuple]:
    """A user's session of `sperner` commands, `sperner sp w 10` among them."""
    cmds = [["sp", "w", "10"]]
    for pattern in ("w", "v"):
        for n in _grid(rng, 11, 2500, 6, 20):
            cmds.append(["sp", pattern, str(n)])
    for pattern in ("chain:" + str(rng.randint(1, 5)),
                    "antichain:" + str(rng.randint(2, 4)), "powerset:2"):
        for n in _grid(rng, 0, 3000, 2, 700):
            cmds.append(["sp", pattern, str(n)])
    for pattern in ("v", "w"):
        for e in _grid(rng, 1, 60, 2, 10):
            cmds.append(["asp", pattern, _count(rng, e)])
    for pattern, e in zip(rng.sample(_SMALL_PATTERNS, 3),
                          _grid(rng, 1, 700, 3, 100)):
        cmds.append(["asp", pattern, _count(rng, e)])
    for sp_cmd in cmds[1:]:
        if rng.random() < 0.25:
            sp_cmd.append("--csv")
    for pattern in rng.sample(_ALL_PATTERNS, 3):
        cmds.append(["dim", pattern])
    for pattern, e in zip(rng.sample(("v", "w", "chain:3", "antichain:2",
                                      "powerset:2"), 2),
                          _grid(rng, 1, 60, 2, 10)):
        cmds.append(["gmin", "dn" + pattern, _count(rng, e)])
    cmds.append(["gmin", f"power:dnv:{_count(rng, rng.randint(1, 60))}"])
    for pattern in rng.sample(_TINY_LATTICES, 2):
        cmds.append(["gmin", pattern])
    for _ in range(3):
        pattern, n = _witness_arg(rng)
        cmds.append(["witness", pattern, str(n)])
    for pattern in rng.sample(_ORACLE_PATTERNS, 2):
        cmds.append(["oracle", "sp", pattern, str(rng.randint(3, 5))])
    cmds.append(["table", rng.choice(("t1", "adjoints", "chain4", "v-small"))])
    rng.shuffle(cmds)
    return [("cli", tuple(c)) for c in cmds]


# --- bignum-adjoint -----------------------------------------------------------

# The twelve `sperner table gmin` entries: (lattice, mantissa, exponent).
TABLE_GMIN = tuple((base, m, e)
                   for base in ("dn chain:4", "dn v", "dn w")
                   for m, e in ((2022, 0), (2023, 0), (3, 606), (5, 606)))
# W answers stay below n = 2048: beyond, the galloping search evaluates
# lower_w(4096), which alone takes 2.4 s (see EXCLUDED).
W_TOP_EXPONENT = 610
# Exponent ranges of the V and W queries: (kind, low, high, points). The
# pass is laid out by cost so that its tail percentile (ten queries beyond
# it) falls on a fixed query, the cold `gmin_power dn v 3e606` (0.3-0.5 s).
# Above it: `gmin_power dn w 3e606`, the eight W queries of 420-610 and
# the one V query past n = 2048, which evaluates lower_v(4096) (0.5 s and
# up each). Below it: the light ranges, 0.17 s at most. W skips exponents
# 190-420 and V those between 400 and its top point, where a query would
# cost about as much as that table entry.
_VW_RANGES = (("w", 2, 190, 4), ("w", 420, W_TOP_EXPONENT, 8),
              ("v", 2, 400, 6), ("v", 625, 700, 1))
_CHEAP_TARGETS = ("chain:1", "chain:2", "chain:3", "chain:4", "chain:5",
                  "antichain:2", "antichain:3", "antichain:4", "powerset:2",
                  "dn chain:2", "dn chain:3", "dn chain:5")
# The formula queries cost 0.2-5 ms, growing with the exponent, and the
# pass's median falls among them. Each grid point has a fixed target, since
# at one exponent the targets' costs differ by a fifth; the seed moves only
# k. They are spread over the pass in the order 0, 7, 14, ... of their
# exponents (mod 40), so that queries of like cost are timed seconds apart,
# not in one burst the host may slow down.
_CHEAP_STRIDE = 7


def _bignum_adjoint(rng: random.Random) -> list[tuple]:
    """The table entries first, as `sperner table gmin` runs them, then W and
    V queries by growing k (asp and gmin_power on V or W share one estimate
    cache, so each query reuses the probes of the ones before it), with the
    formula routes, which use no cache, spread evenly between them. The
    order is fixed so that each query finds the cache as warm in every pass
    and for every seed."""
    adjoints = [("gmin_power", base, m, e) for base, m, e in TABLE_GMIN]
    for kind, low, high, points in _VW_RANGES:
        for e in _grid(rng, low, high, points, 3):
            if rng.random() < 0.25:
                adjoints.append(("gmin_power", "dn " + kind, rng.randint(1, 9), e))
            else:
                adjoints.append(("asp", kind, rng.randint(1, 9), e))
    cheap = []
    for i, e in enumerate(_grid(rng, 2, 700, 40, 3)):
        target = _CHEAP_TARGETS[i % len(_CHEAP_TARGETS)]
        kind = "gmin_power" if target.startswith("dn ") else "asp"
        cheap.append((kind, target, rng.randint(1, 9), e))
    cheap = [cheap[i * _CHEAP_STRIDE % len(cheap)] for i in range(len(cheap))]
    queries, placed = [], 0
    for i, query in enumerate(adjoints, 1):
        queries.append(query)
        upto = round(i * len(cheap) / len(adjoints))
        queries += cheap[placed:upto]
        placed = upto
    return queries


# --- small-exact --------------------------------------------------------------

# Each slot lists alternatives of about equal cost; the seed picks one. The
# pass is laid out by cost so that its percentiles land inside groups of
# like queries: the ten heaviest (three fixed queries and the heavy slots,
# 0.25 s and up) sit above the fixed brute force on chain(3)^3 (about
# 0.12 s), where the tail percentile falls, and every light slot costs at
# most 0.1 s; the median falls among the oracle runs at n = 5.
_LIGHT_SLOTS = (  # (kind, alternatives, number of slots)
    ("sp_exhaustive", (("w", 5), ("antichain:2", 5), ("powerset:2", 5)), 12),
    ("sp_exhaustive", tuple((p, n) for p in _ORACLE_PATTERNS + ("antichain:3",)
                            for n in (3, 4)), 10),
    ("gmin_bruteforce", (("dn v", 1), ("dn w", 1), ("dn antichain:3", 1),
                         ("dn powerset:2", 1), ("dn chain:4", 1),
                         ("chain 3", 2), ("chain 4", 2)), 3),
    ("gmin_bruteforce", (("dn antichain:4", 1), ("chain 2", 4),
                         ("dn antichain:2", 2)), 2),
    ("lattice", (("dn antichain:2", 3), ("dn antichain:3", 2),
                 ("dn chain:2", 3)), 2),
    ("witness", (("w", 13), ("v", 13)), 2),
    ("witness", (("w", 14), ("v", 14)), 2),
    ("witness", (("chain:1", 13), ("antichain:2", 14)), 1),
    ("witness", (("chain:1", 14), ("antichain:2", 15)), 1),
    ("witness", (("chain:2", 14), ("antichain:3", 15)), 1),
    ("witness", (("chain:3", 15), ("powerset:2", 14)), 1),
)
_HEAVY_SLOTS = (
    ("lattice", (("dn antichain:2", 4), ("dn chain:1", 5)), 1),
    ("lattice", (("dn v", 3), ("dn chain:3", 3)), 1),
    ("witness", (("w", 15), ("v", 15)), 5),
)


def _small_exact(rng: random.Random) -> list[tuple]:
    """Light queries first and the heaviest last, in a fixed order: what a
    query costs, and the pass's peak memory, depend on what ran before it
    (numpy blocks freed and faulted in again, objects left for the garbage
    collector)."""
    queries = []
    for kind, alternatives, count in _LIGHT_SLOTS:
        queries.extend((kind,) + rng.choice(alternatives) for _ in range(count))
    queries.append(("gmin_bruteforce", "chain 3", 3))
    for kind, alternatives, count in _HEAVY_SLOTS:
        queries.extend((kind,) + rng.choice(alternatives) for _ in range(count))
    return queries + [("sp_exhaustive", "v", 6), ("witness", "w", 16),
                      ("lattice", "dn w", 3)]


_BUILDERS = {"cli-session": _cli_session, "bignum-adjoint": _bignum_adjoint,
             "small-exact": _small_exact}


def build(workload: str, seed: int) -> list[tuple]:
    """The queries of one pass of `workload` for `seed`."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def key(query: tuple) -> str:
    """Stable text naming a query, used in reports and golden answers."""
    kind, *args = query
    if kind == "cli":
        return "sperner " + " ".join(args[0])
    if kind in ("asp", "gmin_power"):
        target, m, e = args
        return f"{kind} {target} {_k_text(m, e)}"
    return " ".join([kind] + [str(a) for a in args])


# --- running in-process queries -----------------------------------------------

def _lattice_of(sl, base: str, k: int):
    kind, _, arg = base.partition(" ")
    if kind == "dn":
        lattice = sl.down_set_lattice(sl.builtin_poset(arg))
    else:
        lattice = sl.chain_lattice(int(arg))
    return lattice if k == 1 else sl.direct_power(lattice, k)


def _bracket_text(res, route: str) -> str:
    return f"{res.lo} {res.hi} {route}{' collapsed' if res.collapsed else ''}"


def run(sl, query: tuple) -> str:
    """Run one in-process query against the spernerlib module `sl`; the
    answer is returned as canonical text."""
    kind, *args = query
    if kind == "asp":
        pattern, m, e = args
        res = sl.asp_dispatch(sl.builtin_poset(pattern), m * 10 ** e)
        return _bracket_text(res, res.method)
    if kind == "gmin_power":
        base, m, e = args
        res = sl.gmin_power(_lattice_of(sl, base, 1), m * 10 ** e)
        return _bracket_text(res, res.route)
    if kind == "witness":
        pattern, n = args
        if pattern == "w":
            family = sl.witness_w(n)
        elif pattern == "v":
            family = sl.witness_v(n)
        else:
            family = sl.witness_bounded(sl.builtin_poset(pattern), n)
        cert = sl.certify(family)
        return f"{len(family)} {cert.ok} {cert.mode}"
    if kind == "sp_exhaustive":
        pattern, n = args
        res = sl.sp_exhaustive(sl.builtin_poset(pattern), n, cap=max(5, n))
        return f"{res.value} {res.total_copies}"
    if kind == "gmin_bruteforce":
        size, witness = sl.gmin_bruteforce(_lattice_of(sl, *args))
        return f"{size} {','.join(map(str, witness))}"
    if kind == "lattice":
        lattice = _lattice_of(sl, *args)
        dist = sl.is_distributive_lattice(lattice)
        return f"{lattice.size} {dist} {sl.join_irreducibles(lattice).size}"
    raise ValueError(f"unknown query kind {kind!r}")


# --- invariants -----------------------------------------------------------------

def _central(m: int) -> int:
    return math.comb(m, m // 2) if m >= 0 else 0


def _central_adjoint(k: int) -> int:
    """Least n with C(n, floor(n/2)) >= k, by plain search on math.comb."""
    hi = 1
    while _central(hi) < k:
        hi *= 2
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        if _central(mid) >= k:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _pattern_dim(pattern: str) -> int:
    """Least embedding ground size of a builtin pattern, from first principles:
    a chain of length t needs t; an antichain of m needs C(n, n/2) >= m;
    the subsets of [p] need p; V needs 2 and W needs 3."""
    head, _, arg = pattern.partition(":")
    if head in ("chain", "powerset"):
        return int(arg)
    if head == "antichain":
        return _central_adjoint(int(arg))
    return {"v": 2, "w": 3}[head]


def _is_bounded(pattern: str) -> bool:
    return pattern.startswith(("chain:", "powerset:"))


def _plain(value: int) -> str:
    """The CLI's plain rendering of an exact integer."""
    if value >= 10 ** 15:
        d = Context(prec=7, rounding=ROUND_HALF_EVEN).create_decimal(value)
        sign, digits, exp = d.as_tuple()
        mant = "".join(map(str, digits)).ljust(7, "0")
        return f"{mant[0]}.{mant[1:]}e{exp + len(digits) - 1}"
    return f"{value:,}".replace(",", " ")


def _count_value(text: str) -> int:
    """Exact integer value of a count written as <m>e<e> or plainly."""
    mant, _, exp = text.partition("e")
    return int(mant) * 10 ** int(exp or 0)


def _bounded_adjoint(pattern: str, k: int) -> int | None:
    """The exact adjoint of a bounded pattern (p + least n with C(n, n/2) >=
    k), or None when the pattern is not bounded."""
    if not _is_bounded(pattern):
        return None
    return _pattern_dim(pattern) + (_central_adjoint(k) if k > 1 else 0)


def _bracket_problem(lo: int, hi: int, expect: int | None) -> str | None:
    if lo > hi:
        return f"bracket {lo}..{hi} is inverted"
    if expect is not None and (lo, hi) != (expect, expect):
        return f"answer {lo}..{hi}, the math.comb formula gives {expect}"
    return None


def _witness_problem(sl, pattern: str, n: int, size: int,
                     certified: bool) -> str | None:
    if not certified:
        return "certify rejected the witness family"
    if pattern == "w":
        lower = sl.lower_w(n)
    elif pattern == "v":
        lower = sl.lower_v(n)
    else:
        lower = _central(n - _pattern_dim(pattern))
    if size != lower:
        return f"witness has {size} copies, the lower estimate is {lower}"
    return None


def _oracle_problem(sl, pattern: str, n: int, value: int) -> str | None:
    res = sl.sp_dispatch(sl.builtin_poset(pattern), n)
    if not res.lo <= value <= res.hi:
        return f"exhaustive {value} outside the bracket {res.lo}..{res.hi}"
    return None


def check(sl, query: tuple, answer: str) -> str | None:
    """None when the answer of an in-process query satisfies its invariants,
    else a description of the violation."""
    kind, *args = query
    parts = answer.split()
    if kind in ("asp", "gmin_power"):
        target, m, e = args
        # the join-irreducibles of a dn lattice form its base poset
        pattern = target[3:] if kind == "gmin_power" else target
        return _bracket_problem(int(parts[0]), int(parts[1]),
                                _bounded_adjoint(pattern, m * 10 ** e))
    if kind == "witness":
        return _witness_problem(sl, *args, int(parts[0]), parts[1] == "True")
    if kind == "sp_exhaustive":
        return _oracle_problem(sl, *args, int(parts[0]))
    if kind == "gmin_bruteforce":
        base, k = args
        size = int(parts[0])
        witness = [int(x) for x in parts[1].split(",")] if len(parts) > 1 else []
        lattice = _lattice_of(sl, base, k)
        if len(witness) != size or not sl.generating_set_check(lattice, witness):
            return f"witness {witness} does not generate the lattice"
        if k >= 2:
            bridge = sl.gmin_power(_lattice_of(sl, base, 1), k)
            if not bridge.lo <= size <= bridge.hi:
                return f"brute force {size}, bridge {bridge.lo}..{bridge.hi}"
        return None
    if kind == "lattice":
        base, k = args
        size, dist, ji = int(parts[0]), parts[1] == "True", int(parts[2])
        factor = _lattice_of(sl, base, 1)
        if size != factor.size ** k:
            return f"power has {size} elements, expected {factor.size ** k}"
        if not dist:
            return "a power of a down-set lattice was judged not distributive"
        if ji != k * sl.builtin_poset(base[3:]).size:
            return f"{ji} join-irreducibles, expected k times the base poset"
        return None
    raise ValueError(f"unknown query kind {kind!r}")


def _parse_bracket(text: str) -> tuple[int, int] | None:
    """(lo, hi) from plain or --csv sp/asp/gmin output; values printed in
    scientific notation come back rounded, which keeps their order."""
    text = text.strip()
    if " (route: " in text:
        lo_t, _, hi_t = text.partition(" (route: ")[0].partition("..")
        return tuple(int(Decimal(t.replace(" ", ""))) for t in (lo_t, hi_t or lo_t))
    fields = text.split(",")
    if len(fields) >= 3:
        return int(fields[0]), int(fields[1])
    return None


def check_cli(sl, argv: tuple, code: int, out: str) -> str | None:
    """Invariants on one `sperner` command's exit code and stdout."""
    if code != 0:
        return f"exit code {code}"
    cmd = argv[0]
    if cmd in ("sp", "asp") or (cmd == "gmin" and (len(argv) > 2 or
                                                   argv[1].startswith("power:"))):
        parsed = _parse_bracket(out)
        if parsed is None:
            return f"unparsable output {out!r}"
        expect = None
        if cmd == "sp" and _is_bounded(argv[1]):
            expect = _central(int(argv[2]) - _pattern_dim(argv[1]))
        elif cmd == "asp":
            expect = _bounded_adjoint(argv[1], _count_value(argv[2]))
        elif cmd == "gmin":
            spec, k_text = argv[1], argv[2] if len(argv) > 2 else None
            if spec.startswith("power:"):
                spec, _, k_text = spec[len("power:"):].rpartition(":")
            expect = _bounded_adjoint(spec[2:], _count_value(k_text))
        if expect is not None:
            # exact digits with --csv, the CLI's plain rendering otherwise
            want = str(expect) if "--csv" in argv else _plain(expect)
            got = out.split(",")[0] if "--csv" in argv else out.split(" (route")[0]
            if got != want:
                return f"the math.comb formula gives {want}, the CLI printed {got}"
        return _bracket_problem(*parsed, None)
    if cmd == "witness":
        lines = out.splitlines()
        return _witness_problem(sl, argv[1], int(argv[2]),
                                int(lines[0].split(": ")[1]),
                                lines[1].startswith("certified: true"))
    if cmd == "oracle":
        return _oracle_problem(sl, argv[2], int(argv[3]), int(out.split()[0]))
    if cmd == "dim":
        if int(out.split()[0]) != _pattern_dim(argv[1]):
            return f"dimension {out.split()[0]}, expected {_pattern_dim(argv[1])}"
        return None
    if cmd == "gmin":
        count, _, rest = out.partition(" (generators: ")
        gens = rest.rstrip().rstrip(")").split(";") if rest else []
        if int(count) != len(gens):
            return f"gmin {count} but {len(gens)} generators listed"
    return None
