"""One hash over the library's exact outputs on small inputs.

A change meant to keep every output must leave ``IDENTITY`` as it is; a
change that moves it either has a bug or changes the results on purpose,
and then says so.
"""

import hashlib
import json
from itertools import product

from crkron.kronecker import face_term_breakdown, jt_term_breakdown
from crkron.partitions import partitions_of
from crkron.polytope import CRSystem, count_points, enumerate_points

IDENTITY = "debf44e5f05b7043a14a75f2008401c7116c647cb859eed55550c4fcbb49cee2"


def _weak_compositions(n: int, parts: int):
    """Every tuple of ``parts`` nonnegative ints summing to ``n``."""
    if parts == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for tail in _weak_compositions(n - head, parts - 1):
            yield (head,) + tail


def _outputs():
    for n in range(6):
        parts = partitions_of(n)
        for triple in product(parts, repeat=3):
            yield jt_term_breakdown(*triple)
            for ell in (1, 2):
                try:
                    yield face_term_breakdown(*triple, ell)
                except ValueError as exc:
                    yield str(exc)
    for n in range(1, 5):
        parts = partitions_of(n)
        for lam, mu in product(parts, repeat=2):
            for k in range(1, n + 2):
                for tau in _weak_compositions(n, k):
                    for transport in (False, True):
                        yield count_points(CRSystem(lam, mu, tau, transport_only=transport))
    for n in range(1, 4):
        for lam, mu, nu in product(partitions_of(n), repeat=3):
            yield [t.to_json_dict() for t in enumerate_points(CRSystem(lam, mu, nu))]


def identity_hash() -> str:
    digest = hashlib.sha256()
    for item in _outputs():
        digest.update(json.dumps(item, sort_keys=True).encode())
    return digest.hexdigest()


def test_outputs_hash_to_the_pinned_identity():
    assert identity_hash() == IDENTITY
