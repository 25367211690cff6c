"""Seeded input generators for the four workloads.

Everything here is plain Python: inputs are made before `hopforders` is
imported, so their cost never counts as the program's set-up time.  The same
seed always gives the same inputs.  What reaches the program is only text,
ints and family tags, as a user of the library or the CLI would pass them.

Matrices over F_q[T] are built with a small F_q arithmetic of their own
(elements are ints 0..q-1, base-p digits in the power basis of `a`), so the
generator never borrows arithmetic from the code under test.
"""

from __future__ import annotations

import random

# Field text as the CLI takes it; F_4 = F_2[a]/(a^2 + a + 1).
FIELDS = {"F2": "p=2", "F3": "p=3", "F4": "p=2;k=2;mod=a^2+a+1"}

# The README worked example: `check` on it must print this A.
WORKED_B = "[0,T^2,0;T^3,0,0;0,0,T^4]"
WORKED_THETA = "[T,0,0;1,1,0;1,0,T]"
WORKED_A = "[T,T,0;T + T^5,T,0;1 + T^3,1,T^5]"

AGREE_DEPTH = 8                    # default_depth(2): 2^8 <= exhaustive_limit
ENUM_DEPTHS = {3: 11, 5: 7}        # >= 6*10^4 points per cell
I_VALUES = range(0, 7)             # criterion-2 grid for p = 2: i in 0..2p+2
J_VALUES = range(-2, 5)            # j from -2


class Fq:
    """Table arithmetic on F_q for q in {2, 3, 4}; elements are ints."""

    def __init__(self, name: str):
        self.name = name
        if name == "F4":
            self.p, self.q = 2, 4
            # (c0 + c1 a)(d0 + d1 a) with a^2 = a + 1
            def mul(x, y):
                c0, c1, d0, d1 = x & 1, x >> 1, y & 1, y >> 1
                hi = c1 & d1
                return ((c0 & d0) ^ hi) | (((c0 & d1) ^ (c1 & d0) ^ hi) << 1)
            self.mul = mul
            self.add = lambda x, y: x ^ y
        else:
            p = int(name[1:])
            self.p, self.q = p, p
            self.mul = lambda x, y: (x * y) % p
            self.add = lambda x, y: (x + y) % p

    def text(self, c: int) -> str:
        if self.name != "F4":
            return str(c)
        return {1: "1", 2: "a", 3: "(a+1)"}[c]


def poly_add(f: Fq, a: list[int], b: list[int]) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = f.add(out[i], c)
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_mul(f: Fq, a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = f.add(out[i + j], f.mul(x, y))
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_text(f: Fq, a: list[int]) -> str:
    terms = []
    for e, c in enumerate(a):
        if c == 0:
            continue
        mono = "" if e == 0 else ("T" if e == 1 else f"T^{e}")
        cs = f.text(c)
        if not mono:
            terms.append(cs)
        else:
            terms.append(mono if c == 1 else f"{cs}*{mono}")
    return "+".join(terms) if terms else "0"


def rand_poly(rng: random.Random, f: Fq, max_deg: int) -> list[int]:
    out = [rng.randrange(f.q) for _ in range(rng.randint(0, max_deg) + 1)]
    while out and out[-1] == 0:
        out.pop()
    return out


def mat_mul(f: Fq, x, y):
    n = len(x)
    return [[_dot(f, [x[r][k] for k in range(n)], [y[k][c] for k in range(n)])
             for c in range(n)] for r in range(n)]


def _dot(f, row, col):
    acc: list[int] = []
    for a, b in zip(row, col):
        acc = poly_add(f, acc, poly_mul(f, a, b))
    return acc


def rand_unit(rng: random.Random, f: Fq, n: int):
    """A unit of M_n(F_q[T]_(T)): L * U, det(L U)(0) != 0 but det is rarely a
    T-power-free constant, so its inverse has general denominators."""
    low = [[[] for _ in range(n)] for _ in range(n)]
    up = [[[] for _ in range(n)] for _ in range(n)]
    for r in range(n):
        d = [rng.randrange(1, f.q)] + rand_poly(rng, f, 1)
        while d and d[-1] == 0:
            d.pop()
        low[r][r] = d
        up[r][r] = [1]
        for c in range(r):
            low[r][c] = rand_poly(rng, f, 2)
            up[c][r] = rand_poly(rng, f, 1)
    return mat_mul(f, low, up)


def laurent_matrix_text(f: Fq, polys, shifts) -> str:
    """Text of the matrix with entry (r, c) = polys[r][c] * T^shifts[c]."""
    rows = []
    for row in polys:
        cells = []
        for c, a in enumerate(row):
            if not a:
                cells.append("0")
            elif shifts[c] == 0:
                cells.append(poly_text(f, a))
            else:
                cells.append(f"({poly_text(f, a)})*T^{shifts[c]}")
        rows.append(",".join(cells))
    return "[" + ";".join(rows) + "]"


def _product_text(f: Fq, unit, shifts, w) -> str:
    """Text of (unit * diag(T^shifts)) * w, as T^m times a polynomial matrix."""
    m = min(shifts)
    n = len(unit)
    scaled = [[[0] * (shifts[c] - m) + unit[r][c] if unit[r][c] else []
               for c in range(n)] for r in range(n)]
    return laurent_matrix_text(f, mat_mul(f, scaled, w), [m] * n)


def rand_integral_text(rng: random.Random, f: Fq, n: int, zero_share=0.3) -> str:
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            a = [] if rng.random() < zero_share else rand_poly(rng, f, 2)
            row.append(poly_text(f, a))
        rows.append(",".join(row))
    return "[" + ";".join(rows) + "]"


# -- workloads --

def agree_cells(seed: int, rounds: int):
    """Criterion-2-shaped cells over F_2.  Per round and family every i and
    every j occurs once, paired by a seeded permutation, so runs differ in
    which cells they check but not in the mix of i and j."""
    rng = random.Random(f"agree_p2|{seed}")
    cells = []
    for _ in range(rounds):
        block = []
        for fam in ("alpha_p2", "mono_p2"):
            js = list(J_VALUES)
            rng.shuffle(js)
            block += [(fam, i, j) for i, j in zip(I_VALUES, js)]
        rng.shuffle(block)
        cells.extend(block)
    return cells


def enum_cells(seed: int, rounds: int):
    """Per round and family, one p=3 cell and two p=5 cells, (i, j) drawn by
    seed.  The 1:2 mix keeps the median inside the p=5 cells and the 95th
    percentile inside the p=3 cells, rather than between the two."""
    rng = random.Random(f"enum_deep|{seed}")
    cells = []
    for _ in range(rounds):
        block = [(fam, p, rng.choice(I_VALUES), rng.choice(J_VALUES), ENUM_DEPTHS[p])
                 for fam in ("alpha_p2", "mono_p2") for p in (3, 5, 5)]
        rng.shuffle(block)
        cells.extend(block)
    return cells


def theta_requests(seed: int, count: int):
    """(field, B text, Theta text) with Theta = unit * T-power diagonal.

    Every block of six requests holds each (field, size) pair once, so the
    mix is the same on every seed; the shifts make about a third integral.
    """
    rng = random.Random(f"theta_stream|{seed}")
    combos = [(name, n) for name in FIELDS for n in (2, 3)]
    out = []
    while len(out) < count:
        block = combos[:]
        rng.shuffle(block)
        for name, n in block:
            f = Fq(name)
            unit = rand_unit(rng, f, n)
            shifts = [rng.randint(-1, 2) for _ in range(n)]
            out.append((name, rand_integral_text(rng, f, n),
                        laurent_matrix_text(f, unit, shifts)))
    return out[:count]


_MALFORMED = [
    ["frobnicate", "--field", "p=2"],
    ["check", "--field", "p=2", "--B", "[1,0;0,1]"],
    ["check", "--field", "p=4", "--B", "[1,0;0,1]", "--theta", "[1,0;0,1]"],
    ["fibre", "--field", "p=2", "--A", "[T,"],
    ["fibre", "--field", "p=2", "--A", "[1,0;0]"],
    ["enumerate", "--family", "alpha_p2", "--field", "p=2", "--i", "3..1", "--j", "0"],
    ["enumerate", "--family", "nope", "--field", "p=2", "--i", "0", "--j", "0"],
    ["rank1", "--field", "p=3", "--b", "a*T", "--i", "0"],
    ["present", "--field", "p=3", "--A", "[1/0,0;0,1]"],
    ["same-order", "--field", "p=2", "--theta", "[1,0;0,1]", "--theta2", "[1,1;1,1]"],
]

ENUM_I = (3, 6)      # zp_x_ap survivors per cell depend only on i: 2^i
ENUM_CLI_DEPTH = 8


def cli_commands(seed: int, rounds: int):
    """(subcommand, argv, expected exit code, points decided) per command.

    Each round runs all nine subcommands once plus two malformed argv, in a
    seeded order; operands are seeded, expected codes are known by
    construction.
    """
    rng = random.Random(f"cli_session|{seed}")
    out = []
    for _ in range(rounds):
        block = []
        block.append(("check", ["check", "--field", "p=2", "--B", WORKED_B,
                                "--theta", WORKED_THETA], 0, 1))
        block.append(("verify", ["verify", "--field", "p=2", "--theta", WORKED_THETA,
                                 "--A", WORKED_A, "--B", WORKED_B], 0, 1))
        name = rng.choice(list(FIELDS))
        f = Fq(name)
        n = rng.choice((2, 3))
        unit = rand_unit(rng, f, n)
        shifts = [rng.randint(-1, 2) for _ in range(n)]
        theta = laurent_matrix_text(f, unit, shifts)
        block.append(("normalize", ["normalize", "--field", FIELDS[name],
                                    "--theta", theta], 0, 1))
        # Theta * W with W a unit is the same order; Theta * diag(T, 1..) is not
        same = rng.random() < 0.5
        w = rand_unit(rng, f, n) if same else [
            [[0, 1] if (r == c == 0) else ([1] if r == c else []) for c in range(n)]
            for r in range(n)]
        theta2 = _product_text(f, unit, shifts, w)
        block.append(("same-order", ["same-order", "--field", FIELDS[name],
                                     "--theta", theta, "--theta2", theta2],
                      0 if same else 1, 1))
        block.append(("fibre", ["fibre", "--field", FIELDS[name], "--A",
                                rand_integral_text(rng, f, n)], 0, 0))
        block.append(("present", ["present", "--field", FIELDS[name], "--A",
                                  rand_integral_text(rng, f, n)], 0, 0))
        j0 = rng.choice(J_VALUES)
        block.append(("enumerate", ["enumerate", "--family", "zp_x_ap", "--field", "p=2",
                                    "--i", f"{ENUM_I[0]}..{ENUM_I[1]}",
                                    f"--j={j0}..{j0 + 1}",
                                    "--depth", str(ENUM_CLI_DEPTH), "--json"], 0,
                      (ENUM_I[1] - ENUM_I[0] + 1) * 2 * 2 ** ENUM_CLI_DEPTH))
        fam = rng.choice(("alpha_p2", "mono_p2", "zp_squared"))
        i0, jj = rng.randint(0, 4), rng.randint(0, 3)
        block.append(("oracle-check", ["oracle-check", "--family", fam, "--field", "p=3",
                                       "--i", f"{i0}..{i0 + 1}", f"--j={jj}..{jj + 1}",
                                       "--depth", "4"], 0, 4 * 3 ** 4))
        b = rng.choice(["T", "1+T", "T^2", "1/T", "T^-3+T", "2*T^4"])
        i = rng.randint(-2, 2)
        block.append(("rank1", ["rank1", "--field", "p=3", "--b", b, "--i", str(i)],
                      0 if i >= 0 else 1, 1))
        for argv in rng.sample(_MALFORMED, 2):
            block.append(("malformed", argv, 2, 0))
        rng.shuffle(block)
        out.extend(block)
    return out
