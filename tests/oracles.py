"""Reference checks that more than one test file runs.

Each file that uses one imports it by name: pytest puts ``tests/`` on
``sys.path``, and so does running ``python tests/test_acceptance.py``.
"""


def check_bigint_transfer(got, x, product, secret_primes, precision, s):
    """Assert that ``got``, the transfer of x in [0, D) from a basis of s
    public primes with product D to ``secret_primes``, is x or x - D
    modulo every secret prime, and exactly x when (x << a) < (2^a - s) D
    for a = ``precision``, compared in Python ints.  Returns whether x
    lies in that exact region."""
    got = tuple(got)
    exact = tuple(x % r for r in secret_primes)
    wrapped = tuple((x - product) % r for r in secret_primes)
    assert got in (exact, wrapped), f"s={s} x={x}: {got}"
    if (x << precision) < ((1 << precision) - s) * product:
        assert got == exact, f"s={s} x={x} inside the exact region but wrapped"
        return True
    return False
