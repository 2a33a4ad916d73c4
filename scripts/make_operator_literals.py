"""Print ``REFERENCE`` of ``tests/test_operator_reference.py``: mpmath values of (L a)_k.

Run by hand from the repository root, with mpmath installed (it is not a
dependency of the package)::

    PYTHONPATH=src python3 scripts/make_operator_literals.py          # print
    PYTHONPATH=src python3 scripts/make_operator_literals.py --check  # compare

For each case (data, K, alpha) the operator is the defining double sum with
the plateau tail ``a_n = a_K`` for ``n > K``, evaluated at 60 significant
digits on the float64 datum and the float64 alpha, both converted exactly:

    L_k = fsum((a_k - a_n) w_n, n < k) + fsum((a_k - a_n) w_k 2**(k-n), k < n <= K)
          + (a_k - a_K) w_k 2**(k-K),     w_n = 2**(2 alpha n)

Each value is printed as ``mp.nstr(x, 17)``.  The printed dict replaces the
one in the test file; ``--check`` instead compares every literal there with
the float64 of its printed value and exits 1 on a difference.
"""

from __future__ import annotations

import pathlib
import sys

import mpmath as mp

from dyadicflow.scenarios import gen_bump, gen_front

CASES = [
    (name, kmax, alpha)
    for name in ("front", "bump")
    for kmax in (12, 24)
    for alpha in (0.15, 0.35, 0.45)
]
TESTS = pathlib.Path(__file__).resolve().parent.parent / "tests"


def operator(name: str, kmax: int, alpha: float) -> list[mp.mpf]:
    """(L a)_0 .. (L a)_K of the case at mp.dps = 60."""
    data = gen_front(kmax, 4, 1.2, 0.5, 10.0) if name == "front" else gen_bump(kmax)
    with mp.workdps(60):
        a = [mp.mpf(float(x)) for x in data.a]
        ta = 2 * mp.mpf(alpha)
        w = [mp.power(2, ta * n) for n in range(kmax + 1)]
        out = []
        for k in range(kmax + 1):
            lower = mp.fsum((a[k] - a[n]) * w[n] for n in range(k))
            upper = mp.fsum(
                (a[k] - a[n]) * w[k] * mp.power(2, k - n) for n in range(k + 1, kmax + 1)
            )
            plateau = (a[k] - a[kmax]) * w[k] * mp.power(2, k - kmax)
            out.append(lower + upper + plateau)
        return out


def literals() -> dict[tuple, list[str]]:
    return {
        (name, kmax, alpha, "plateau"): [mp.nstr(x, 17) for x in operator(name, kmax, alpha)]
        for name, kmax, alpha in CASES
    }


def main(argv: list[str]) -> int:
    table = literals()
    if "--check" in argv:
        sys.path.insert(0, str(TESTS))
        from test_operator_reference import REFERENCE

        bad = [
            case for case, values in table.items()
            if REFERENCE.get(case) != tuple(float(x) for x in values)
        ]
        bad += [case for case in REFERENCE if case not in table]
        count = sum(len(v) for v in table.values())
        print(f"{count} literals in {len(table)} cases; mismatched cases: {bad or 'none'}")
        return 1 if bad else 0
    print("REFERENCE = {")
    for (name, kmax, alpha, tail), values in table.items():
        print(f'    ("{name}", {kmax}, {alpha!r}, "{tail}"): (')
        for x in values:
            print(f"        {x},")
        print("    ),")
    print("}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
