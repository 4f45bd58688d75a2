import os
import subprocess
import sys

import ellq
from ellq.groups import isprime, primitive_root


def test_character_table_imports_no_sympy():
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ellq.__file__))}
    code = ("import sys\n"
            "from ellq.weylgrp import GroupSpec, build_group\n"
            "assert len(build_group(GroupSpec('B', 3)).character_table().values) == 10\n"
            "print('sympy' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_isprime_matches_sieve():
    n = 10_000
    sieve = [True] * n
    sieve[0] = sieve[1] = False
    for i in range(2, 100):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(range(i * i, n, i))
    assert [k for k in range(n) if isprime(k)] == [k for k in range(n) if sieve[k]]


def test_smallest_primitive_roots():
    assert [primitive_root(p) for p in (7, 23, 41, 71)] == [3, 5, 6, 7]
