import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from cyclorbit import (
    CongruenceSystem,
    CoprimeBase,
    CrtStats,
    PowerEquation,
    decide_solvable,
    factorize,
    solve_system,
)
from cyclorbit import crt_solver

from test_congruence import small_systems

M61 = 2**61 - 1
M127 = 2**127 - 1
P100 = 2**100 - 15  # the largest prime below 2^100


def _prime_powers(b):
    """Trial division: the (prime, exponent) pairs of b, ascending."""
    out = []
    d = 2
    while d * d <= b:
        e = 0
        while b % d == 0:
            b //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if b > 1:
        out.append((b, 1))
    return out


def _prime_power_oracle(system):
    """Solvable iff, for every prime p, the congruences mod powers of p agree
    with the strongest one.  Small moduli only: it factors by trial division."""
    strongest = {}
    atoms = []
    for a, b in system:
        for p, e in _prime_powers(b):
            atoms.append((p, e, a % p**e))
            if e > strongest.get(p, (0, 0))[0]:
                strongest[p] = (e, a % p**e)
    return all(strongest[p][1] % p**e == z for p, e, z in atoms)


def _is_prime(n):
    """Miller-Rabin with the first twelve prime bases, exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _next_prime(n):
    while not _is_prime(n):
        n += 1
    return n


def _base(tables):
    """A coprime base holding the given pairwise coprime keys with the given tables."""
    levels = CoprimeBase()
    for q, table in tables.items():
        factorize(q, levels)
        levels[q] = table
    return levels


def _check_base(levels, b, pairs):
    """pairs is b over the keys of levels, and those keys are a coprime base."""
    assert math.prod(q**e for q, e in pairs) == b
    assert all(e >= 1 for _, e in pairs)
    used = {q for q, _ in pairs}
    assert len(used) == len(pairs) and used <= set(levels)
    assert all(q > 1 for q in levels)
    assert all(math.gcd(p, q) == 1 for p, q in combinations(levels, 2))
    assert all(math.gcd(q, b) == 1 for q in levels if q not in used)


def test_factorize_known():
    levels = CoprimeBase()
    assert factorize(360, levels) == [(360, 1)]
    assert levels == {360: []}
    assert factorize(1, levels) == []
    assert levels == {360: []}
    assert factorize(2, levels) == [(2, 1)]
    assert levels == {2: [], 45: []}
    assert factorize(1024, levels) == [(2, 10)]
    # 3 * 97 splits 45 into 3 (45 = 3^2 * 5) and 5; 97 is a new key
    assert factorize(3 * 97, levels) == [(3, 1), (97, 1)]
    assert levels == {2: [], 3: [], 5: [], 97: []}
    with pytest.raises(ValueError):
        factorize(0, CoprimeBase())


def test_factorize_rewrites_split_tables():
    # 7 mod 360 is 7 mod 2^3 and 7 mod 45; the key 360 splits when 2 arrives
    levels = _base({360: [7]})
    assert factorize(2, levels) == [(2, 1)]
    assert levels == {2: [1, 3, 7], 45: [7]}
    # a key that comes back unchanged keeps its table object
    table = levels[45]
    assert factorize(45**2 * 7, levels) == [(45, 2), (7, 1)]
    assert levels[45] is table and levels[7] == []
    # 4 = 2^2 splits into 2 with twice the levels: 3 mod 4 is 1 mod 2, 3 mod 4
    levels = _base({4: [3]})
    assert factorize(2, levels) == [(2, 1)]
    assert levels == {2: [1, 3]}
    # 23 mod 6^2 is 23 mod 2^2 and 23 mod 3^2: both new tables keep two levels
    levels = _base({6: [5, 23]})
    assert factorize(4, levels) == [(2, 2)]
    assert levels == {2: [1, 3], 3: [2, 5]}
    assert not decide_solvable(CongruenceSystem(((5, 6), (23, 36), (1, 4))))
    assert decide_solvable(CongruenceSystem(((5, 6), (23, 36), (3, 4))))


@given(st.lists(st.integers(1, 10**6), min_size=1, max_size=8))
def test_factorize_reconstructs(moduli):
    levels = CoprimeBase()
    for b in moduli:
        _check_base(levels, b, factorize(b, levels))


def test_split_equation_known():
    # the atoms of x = a (mod b) over the base are a mod q^e for b's pairs
    levels = CoprimeBase()
    factorize(4, levels)
    factorize(9, levels)
    # 4 stays a key; 9 = 3^2 becomes 3
    assert factorize(12, levels) == [(4, 1), (3, 1)]
    assert levels == {4: [], 3: []}
    stats = CrtStats()
    assert decide_solvable(CongruenceSystem(((3, 4), (7, 12))), stats)
    assert [atom for atom, _ in stats.per_atom] == [
        PowerEquation(4, 1, 3),
        PowerEquation(4, 1, 3),
        PowerEquation(3, 1, 1),
    ]
    assert str(PowerEquation(4, 1, 3)) == "3 mod 4^1"


@given(
    st.lists(st.integers(2, 60), max_size=4),
    st.integers(2, 3000).flatmap(lambda b: st.tuples(st.integers(0, b - 1), st.just(b))),
)
def test_split_is_equivalent_to_original(earlier, eq):
    a, b = eq
    levels = CoprimeBase()
    for m in earlier:
        factorize(m, levels)
    atoms = [(q**e, a % q**e) for q, e in factorize(b, levels)]
    # same solution set over one full period
    for x in range(b):
        original = (x - a) % b == 0
        split = all((x - z) % m == 0 for m, z in atoms)
        assert original == split


def test_decide_solvable_known():
    assert decide_solvable(CongruenceSystem(((1, 2), (1, 3))))
    assert decide_solvable(CongruenceSystem(((2, 4), (0, 6))))
    assert not decide_solvable(CongruenceSystem(((1, 4), (3, 8))))
    assert decide_solvable(CongruenceSystem(((3, 4), (7, 8))))
    assert not decide_solvable(CongruenceSystem(((0, 2), (1, 2))))
    assert decide_solvable(CongruenceSystem(()))


@settings(max_examples=500)
@given(small_systems)
def test_decide_solvable_matches_solver(sys_):
    assert decide_solvable(sys_) == (not solve_system(sys_).is_empty)


@settings(max_examples=200)
@given(
    st.lists(
        st.integers(1, 10**4).flatmap(
            lambda b: st.tuples(st.integers(0, b - 1), st.just(b))
        ),
        min_size=0,
        max_size=5,
    )
)
def test_decide_solvable_matches_solver_wide_moduli(eqs):
    sys_ = CongruenceSystem(tuple(eqs))
    assert decide_solvable(sys_) == (not solve_system(sys_).is_empty)


@settings(max_examples=300)
@given(
    st.integers(0, 10**12),
    st.lists(
        st.tuples(st.integers(1, 10**4), st.none() | st.integers(0, 10**12)),
        min_size=1,
        max_size=6,
    ),
)
def test_decide_solvable_matches_prime_power_oracle(x, picks):
    # residues mostly follow one hidden x, so the prime-power chains run long
    sys_ = CongruenceSystem(tuple(((x if y is None else y) % b, b) for b, y in picks))
    assert decide_solvable(sys_) == _prime_power_oracle(sys_)


@settings(max_examples=200)
@given(
    st.lists(st.integers(2, 2**64).map(_next_prime), min_size=1, max_size=4, unique=True),
    st.integers(0, 2**300),
    st.integers(1, 2**64),
    st.lists(
        st.tuples(st.lists(st.integers(0, 2), min_size=4, max_size=4), st.integers(0, 2)),
        min_size=1,
        max_size=6,
    ),
    st.randoms(use_true_random=False),
)
def test_decide_solvable_matches_solver_large_primes(primes, x, t, picks, rnd):
    # moduli are products of a few shared large primes, so a key that holds
    # a table is split when a later modulus takes only some of its primes;
    # x and x + t * prod(primes) agree modulo every prime but not its square
    hidden = (x, x + t * math.prod(primes))
    eqs = []
    for exponents, kind in picks:
        b = math.prod(p**e for p, e in zip(primes, exponents))
        eqs.append((hidden[kind] % b if kind < 2 else rnd.randrange(b), b))
    sys_ = CongruenceSystem(tuple(eqs))
    assert decide_solvable(sys_) == (not solve_system(sys_).is_empty)


def test_stats_p_max_e_max():
    # 360 is one key until 2 splits it into 2 (levels 1..3) and 45
    stats = CrtStats()
    decide_solvable(CongruenceSystem(((7, 360), (1, 2))), stats)
    assert stats.p_max == 45
    assert stats.e_max == 3
    assert stats.bit_ops > 0
    assert [atom for atom, _ in stats.per_atom] == [
        PowerEquation(360, 1, 7),
        PowerEquation(2, 1, 1),
    ]


def test_repeated_weak_checks_stay_cheap():
    # one huge stored constraint, then a stream of tiny ones: each tiny
    # check must be answered from the level table, never by reducing the
    # stored residue again
    big_mod = 2**500
    residue = big_mod - 12345
    eqs = [(residue, big_mod)] + [(residue % 2, 2)] * 50
    stats = CrtStats()
    assert decide_solvable(CongruenceSystem(tuple(eqs)), stats)
    small_costs = [cost for atom, cost in stats.per_atom if atom.base == 2]
    assert len(small_costs) == 50
    assert max(small_costs) <= 16, small_costs
    # contrast: even one reduction of the stored residue would cost ~1000
    assert stats.per_atom[0][0] == PowerEquation(2**500, 1, residue)


def test_conflict_found_at_lower_level():
    # stored 11 mod 16, incoming 1 mod 4 disagrees (11 mod 4 == 3)
    assert not decide_solvable(CongruenceSystem(((11, 16), (1, 4))))
    assert decide_solvable(CongruenceSystem(((11, 16), (3, 4))))


def test_strengthening_updates_tables():
    # weaker first, stronger second, then a query at the old level
    assert decide_solvable(CongruenceSystem(((3, 4), (11, 16), (3, 4))))
    assert not decide_solvable(CongruenceSystem(((3, 4), (11, 16), (1, 4))))
    assert not decide_solvable(CongruenceSystem(((1, 4), (11, 16))))


smooth_moduli = st.builds(lambda i, j: 2**i * 3**j, st.integers(0, 10), st.integers(0, 10))


@settings(max_examples=300)
@given(
    st.integers(0, 6**10 - 1),
    st.lists(
        st.tuples(smooth_moduli, st.none() | st.integers(0, 6**10 - 1)),
        min_size=1,
        max_size=8,
    ),
)
def test_decide_solvable_matches_solver_smooth_moduli(x, picks):
    # residues mostly follow one hidden x, so strengthen-then-weaken chains
    # on 2 and 3 run long before a stray residue (if any) ends them
    sys_ = CongruenceSystem(tuple(((x if y is None else y) % b, b) for b, y in picks))
    assert decide_solvable(sys_) == (not solve_system(sys_).is_empty)


@pytest.mark.parametrize(
    "moduli",
    [
        (M61,),
        (M127,),
        (M61 * M127,),
        (M61, M127, M61 * M127),
        (P100 * 3, P100 * 5),
        (P100**2 * 7, P100 * 7),
    ],
)
def test_big_moduli(moduli):
    # moduli whose prime factors trial division could never reach
    rng = random.Random(len(moduli))
    x = rng.randrange(math.prod(moduli))
    solvable = CongruenceSystem(tuple((x % b, b) for b in moduli))
    assert decide_solvable(solvable)
    assert not solve_system(solvable).is_empty
    last = moduli[-1]
    unsolvable = CongruenceSystem(solvable.equations + (((x + 1) % last, last),))
    assert not decide_solvable(unsolvable)
    assert solve_system(unsolvable).is_empty


def test_refutation_stops_before_later_moduli(monkeypatch):
    # 1 mod 2 against 0 mod 2 refutes the system before the 61-bit prime
    # is taken into the base
    factorize = crt_solver.factorize

    def small_only(b, levels, stats=None):
        if b > 2**40:
            pytest.fail(f"factorize called on {b}")
        return factorize(b, levels, stats)

    monkeypatch.setattr(crt_solver, "factorize", small_only)
    assert not decide_solvable(CongruenceSystem(((1, 2), (0, 2), (0, M61))))


def _flat_hits(levels, b):
    """The keys sharing a factor with b, by one gcd with every key."""
    return [y for y in levels if math.gcd(b, y) > 1]


def _check_groups(levels):
    """Every key sits in one group, ranked in the base's order, and each
    group's product has exactly the prime factors of its keys."""
    ranked = sorted((rank, y) for members in levels.members for y, rank in members.items())
    assert [y for _, y in ranked] == list(levels)
    for product, members in zip(levels.products, levels.members):
        assert members
        assert all(pow(product, y.bit_length(), y) == 0 for y in members)
        assert pow(math.prod(members), product.bit_length(), product) == 0
    assert levels.product_bits == sum(p.bit_length() + 1 for p in levels.products)


@settings(max_examples=100)
@given(
    st.lists(
        st.builds(
            lambda s, m: s * m,
            st.sampled_from([1, 2, 3, 4, 6, 9, 10, 12, 15, 30]),
            st.integers(1, 10**6 // 30),
        ),
        max_size=80,
    )
)
def test_group_hits_match_flat_scan(moduli):
    # moduli sharing small factors split keys that already sit in groups
    levels = CoprimeBase()
    for b in moduli:
        flat = _flat_hits(levels, b)
        assert [y for y, _ in levels.hits(b, CrtStats())] == flat
        factorize(b, levels)
        _check_groups(levels)


def _odd_primes(count):
    """The first count odd primes, by a sieve."""
    limit = 50_000
    sieve = bytearray([1]) * limit
    for d in range(2, math.isqrt(limit) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytes(len(range(d * d, limit, d)))
    primes = [p for p in range(3, limit) if sieve[p]]
    assert len(primes) >= count
    return primes[:count]


@pytest.mark.parametrize("factor", [1, 2], ids=["1 mod p", "1 mod 2p"])
def test_key_search_gcds_grow_subquadratically(monkeypatch, factor):
    # a key search that takes one gcd per key per line costs 16x the gcds on
    # 4x the lines; groups of about sqrt(K) keys cost about 8x
    calls = 0

    def counted_gcd(x, y):
        nonlocal calls
        calls += 1
        return math.gcd(x, y)

    monkeypatch.setattr(crt_solver, "gcd", counted_gcd)
    primes = _odd_primes(4000)
    taken = []
    for lines in (1000, 4000):
        calls = 0
        assert decide_solvable(CongruenceSystem(tuple((1, factor * p) for p in primes[:lines])))
        taken.append(calls)
    assert taken[1] <= 10 * taken[0], taken
