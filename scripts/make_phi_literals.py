"""Write ``tests/phi_literals.py``: mpmath values of phi_j(-h M) a.

Run by hand from the repository root, with mpmath installed (it is not a
dependency of the package)::

    PYTHONPATH=src python3 scripts/make_phi_literals.py          # write
    PYTHONPATH=src python3 scripts/make_phi_literals.py --check  # compare

For each case (alpha, K, h) the dissipation matrix M is built from the
defining double sum (plateau tail) in mpmath arithmetic, with alpha, h and
the front datum ``gen_front(K, 4, 1.2, 0.5, 10)`` taken at their exact
float64 values.  phi_0..phi_3 come from the exponential of the augmented
block ``[[-h M, I, 0, 0], [0, 0, I, 0], [0, 0, 0, I], 0]``, whose top block
row holds them (the construction ``integrate._phi_blocks`` uses), at 60 and
at 80 digits; the script stops if the two disagree beyond 1e-40 relative.
The literals are the 80-digit values rounded to float64.  ``--check``
writes nothing: it compares the text it would write with the committed file
and exits 1 on a difference.
"""

from __future__ import annotations

import pathlib
import sys

import mpmath as mp

from dyadicflow.scenarios import gen_front

CASES = ((0.25, 8, 0.01), (0.25, 8, 0.01 * 2.0**-6), (0.45, 8, 0.01), (0.35, 12, 0.01))
FRONT = (4, 1.2, 0.5, 10.0)
OUT = pathlib.Path(__file__).resolve().parent.parent / "tests" / "phi_literals.py"


def dissipation_matrix(alpha: float, kmax: int) -> mp.matrix:
    """(L a)_k = sum_{n != k} (a_k - a_n) c_kn with a_n = a_K beyond K, as a matrix."""
    ta = 2 * mp.mpf(alpha)
    m = mp.matrix(kmax + 1, kmax + 1)
    for k in range(kmax + 1):
        for n in range(kmax + 1):
            if n < k:
                c = mp.power(2, ta * n)
            elif n > k:
                c = mp.power(2, ta * k + k - n)
            else:
                continue
            m[k, n] -= c
            m[k, k] += c
        if k < kmax:
            # the plateau tail: sum_{n>K} 2**(k-n) w_k on a_K
            c = mp.power(2, ta * k + k - kmax)
            m[k, kmax] -= c
            m[k, k] += c
    return m


def phi_actions(alpha: float, kmax: int, h: float, dps: int) -> list[list[mp.mpf]]:
    with mp.workdps(dps):
        n = kmax + 1
        a = mp.matrix([mp.mpf(float(x)) for x in gen_front(kmax, *FRONT).a])
        big = mp.zeros(4 * n, 4 * n)
        z = -mp.mpf(h) * dissipation_matrix(alpha, kmax)
        for i in range(n):
            for j in range(n):
                big[i, j] = z[i, j]
        for blk in range(1, 4):
            for i in range(n):
                big[(blk - 1) * n + i, blk * n + i] = 1
        f = mp.expm(big)
        return [
            [mp.fsum(f[i, blk * n + j] * a[j] for j in range(n)) for i in range(n)]
            for blk in range(4)
        ]


def literals_text() -> str:
    lines = [
        '"""phi_0..phi_3(-h M) a of the front datum (4, 1.2, 0.5, 10), from mpmath.',
        "",
        "Written by scripts/make_phi_literals.py; do not edit by hand.  Keys are",
        "(alpha, K, h); each value lists phi_0 a, phi_1 a, phi_2 a, phi_3 a.",
        '"""',
        "",
        "PHI_ACTIONS = {",
    ]
    for alpha, kmax, h in CASES:
        lo = phi_actions(alpha, kmax, h, 60)
        hi = phi_actions(alpha, kmax, h, 80)
        for row_lo, row_hi in zip(lo, hi):
            for x, y in zip(row_lo, row_hi):
                if abs(x - y) > mp.mpf("1e-40") * abs(y):
                    raise SystemExit(f"60 and 80 digits disagree at {(alpha, kmax, h)}")
        lines.append(f"    ({alpha!r}, {kmax}, {h!r}): [")
        for row in hi:
            lines.append("        [" + ", ".join(repr(float(x)) for x in row) + "],")
        lines.append("    ],")
    lines.append("}")
    return "\n".join(lines) + "\n"


def main(argv: list[str]) -> int:
    text = literals_text()
    if "--check" in argv:
        same = OUT.read_text() == text
        print(f"{OUT.name}: {'matches' if same else 'differs from'} the mpmath values")
        return 0 if same else 1
    OUT.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
