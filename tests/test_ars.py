import copy
import pickle
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from psrewrite import (
    BACKWARD,
    FORWARD,
    Conversion,
    FiniteARS,
    InvalidConversionError,
    PreconditionFailedError,
    check_properties,
    eliminate_valleys,
    normal_forms,
    validate_conversion,
)
from psrewrite import ars
from psrewrite.cli import SessionConfig, run_command


def sys_of(size, *edges):
    return FiniteARS(size, edges)


# -- naive re-implementations used as oracles ---------------------------------

def naive_reach(sys, a):
    out = {a}
    changed = True
    while changed:
        changed = False
        for x, y in sys.edges:
            if x in out and y not in out:
                out.add(y)
                changed = True
    return out


def naive_props(sys):
    reach = {a: naive_reach(sys, a) for a in range(sys.size)}
    nfs = {a for a in range(sys.size)
           if not any(x == a for x, _y in sys.edges)}
    # equivalence generated by the one-step relation, by fixpoint
    eq = {(a, a) for a in range(sys.size)} | set(sys.edges) \
        | {(b, a) for a, b in sys.edges}
    changed = True
    while changed:
        changed = False
        for a, b in list(eq):
            for c, d in list(eq):
                if b == c and (a, d) not in eq:
                    eq.add((a, d))
                    changed = True
    return {
        "normalising": all(reach[a] & nfs for a in range(sys.size)),
        "nf_property": all(b in reach[a] for a in range(sys.size)
                           for b in nfs if (a, b) in eq),
        "unique_nf_property": all(a == b for a in nfs for b in nfs
                                  if (a, b) in eq),
        "unique_nf_reached": all(b == c for a in range(sys.size)
                                 for b in reach[a] & nfs
                                 for c in reach[a] & nfs),
        "confluent": all(naive_reach(sys, b) & naive_reach(sys, c)
                         for a in range(sys.size)
                         for b in reach[a] for c in reach[a]),
    }


def bfs_props(sys):
    """Flags from BFS reachability per element and BFS components of the
    symmetric closure."""
    succ = {a: [] for a in range(sys.size)}
    near = {a: [] for a in range(sys.size)}
    for a, b in sys.edges:
        succ[a].append(b)
        near[a].append(b)
        near[b].append(a)

    def bfs(a, nbrs):
        seen, queue = {a}, [a]
        for x in queue:
            for y in nbrs[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return seen

    reach = {a: bfs(a, succ) for a in range(sys.size)}
    comp = {a: bfs(a, near) for a in range(sys.size)}
    nfs = {a for a in range(sys.size) if not succ[a]}
    joinable = {(b, c) for b in range(sys.size) for c in range(sys.size)
                if reach[b] & reach[c]}
    return {
        "normalising": all(reach[a] & nfs for a in range(sys.size)),
        "nf_property": all(comp[a] & nfs <= reach[a] for a in range(sys.size)),
        "unique_nf_property": all(len(comp[a] & nfs) <= 1 for a in range(sys.size)),
        "unique_nf_reached": all(len(reach[a] & nfs) <= 1 for a in range(sys.size)),
        "confluent": all((b, c) in joinable for a in range(sys.size)
                         for b in reach[a] for c in reach[a]),
    }


def naive_path_to_normal_form(sys, a):
    """Breadth-first search from a over sorted successors, as in the
    library: the first normal form dequeued ends the path."""
    parent = {a: None}
    queue = [a]
    for x in queue:
        succ = sorted(y for x2, y in sys.edges if x2 == x)
        if not succ:
            path = [x]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return path[::-1]
        for y in succ:
            if y not in parent:
                parent[y] = x
                queue.append(y)
    raise AssertionError(f"no normal form reachable from {a}")


def naive_eliminate_valleys(sys, conv):
    """The classic multi-pass procedure: while a valley is left, replace
    everything after the right-most one by a reduction of the valley
    element to its normal form."""
    while conv.valley_indices():
        v = conv.valley_indices()[-1]
        path = naive_path_to_normal_form(sys, [conv.start, *(e for e, _d in conv.steps)][v])
        assert path[-1] == conv.end
        conv = Conversion(conv.start, conv.steps[:v] + tuple((e, FORWARD) for e in path[1:]))
    return conv


def all_systems(size):
    slots = [(a, b) for a in range(size) for b in range(size)]
    for mask in range(2 ** len(slots)):
        yield FiniteARS(size, (e for k, e in enumerate(slots) if mask >> k & 1))


def all_conversions(sys, max_len):
    """Every hop chain between normal forms, up to the given length."""
    nfs = normal_forms(sys)
    hops = {a: [] for a in range(sys.size)}
    for x, y in sys.edges:
        hops[x].append((y, FORWARD))
        hops[y].append((x, BACKWARD))

    def walk(at, steps):
        if at in nfs:
            yield Conversion(start, tuple(steps))
        if len(steps) == max_len:
            return
        for nxt in hops[at]:
            yield from walk(nxt[0], steps + [nxt])

    for start in sorted(nfs):
        yield from walk(start, [])


class TestShapeChecked:
    @pytest.mark.parametrize("size, edges, error, message", [
        (2.5, [(0, 1)], TypeError, "^size 2.5 is not an int$"),
        (True, [], TypeError, "^size True is not an int$"),
        (-1, [], ValueError, "^size must be >= 0$"),
        (3, [(0.5, 1)], TypeError, "^element 0.5 is not an int$"),
        (3, [(0, True)], TypeError, "^element True is not an int$"),
        (3, [(0, 3)], ValueError, r"^edge \(0, 3\) outside 0..2$"),
    ])
    def test_rejected(self, size, edges, error, message):
        with pytest.raises(error, match=message):
            FiniteARS(size, edges)

    @pytest.mark.parametrize("make, message", [
        (lambda: FiniteARS(3, [(0,)]), r"^edge \(0,\) is not an \(a, b\) pair$"),
        (lambda: FiniteARS(3, [(0, 1, 2)]), r"^edge \(0, 1, 2\) is not an \(a, b\) pair$"),
        (lambda: FiniteARS(3, [5]), r"^edge 5 is not an \(a, b\) pair$"),
        (lambda: FiniteARS(3, [[0, 1]]), r"^edge \[0, 1\] is not an \(a, b\) pair$"),
        (lambda: FiniteARS(3, None), "^edges must be an iterable, got NoneType$"),
        (lambda: Conversion(0, None), "^steps must be an iterable, got NoneType$"),
        (lambda: check_properties(None), "^system None is not a FiniteARS$"),
        (lambda: eliminate_valleys(None, Conversion(0, ())), "^system None is not a FiniteARS$"),
        (lambda: eliminate_valleys(FiniteARS(2, [(0, 1)]), None),
         "^conversion None is not a Conversion$"),
        (lambda: validate_conversion(None, Conversion(0, ())), "^system None is not a FiniteARS$"),
        (lambda: validate_conversion(FiniteARS(2, [(0, 1)]), None),
         "^conversion None is not a Conversion$"),
        (lambda: normal_forms(None), "^system None is not a FiniteARS$"),
    ], ids=["one-tuple", "triple", "bare-int", "list-pair", "no-edges", "no-steps",
            "check-no-system", "valleys-no-system", "valleys-no-conversion",
            "validate-no-system", "validate-no-conversion", "normal-forms-no-system"])
    def test_malformed_argument_rejected(self, make, message):
        with pytest.raises(TypeError, match=message):
            make()

    @pytest.mark.parametrize("make", [iter, list, tuple, frozenset],
                             ids=["iterator", "list", "tuple", "frozenset"])
    def test_edges_are_kept_as_a_frozenset(self, make):
        sys, kept = FiniteARS(2, make([(0, 1)])), FiniteARS(2, frozenset({(0, 1)}))
        assert type(sys.edges) is frozenset and sys.edges == {(0, 1)}
        assert sys == kept and hash(sys) == hash(kept)
        assert normal_forms(sys) == {1} and check_properties(sys) == check_properties(kept)

    def test_a_list_changed_later_changes_nothing(self):
        edges = [(0, 1)]
        sys = FiniteARS(2, edges)
        edges.append((1, 5))
        assert sys.edges == {(0, 1)} and normal_forms(sys) == {1}

    @pytest.mark.parametrize("start, steps, message", [
        (0.0, ((1, FORWARD),), "^element 0.0 is not an int$"),
        (True, ((1, FORWARD),), "^element True is not an int$"),
        (0, ((1.0, FORWARD),), "^element 1.0 is not an int$"),
        ("a", ((1, "sideways"),), "^element 'a' is not an int$"),
    ])
    def test_conversion_elements_rejected(self, start, steps, message):
        # A conversion checks its elements' type when it is built.
        with pytest.raises(TypeError, match=message):
            Conversion(start, steps)

    @pytest.mark.parametrize("start, message", [
        (2.0, "^element 2.0 is not an int$"),
        (True, "^element True is not an int$"),
    ])
    def test_valley_elimination_start_rejected(self, start, message):
        with pytest.raises(TypeError, match=message):
            eliminate_valleys(sys_of(3, (0, 1), (1, 2)), Conversion(start, ()))


class TestNormalForms:
    def test_single_edge(self):
        assert normal_forms(sys_of(2, (0, 1))) == {1}

    def test_empty_system(self):
        assert normal_forms(sys_of(3)) == {0, 1, 2}

    def test_self_loop_not_normal(self):
        assert normal_forms(sys_of(3, (0, 0))) == {1, 2}


class TestCheckProperties:
    def test_joined_pair(self):
        props = check_properties(sys_of(3, (0, 2), (1, 2)))
        assert all(vars(props).values())

    def test_peak_with_two_normal_forms(self):
        props = check_properties(sys_of(3, (0, 1), (0, 2)))
        assert props.normalising
        assert not props.unique_nf_reached
        assert not props.confluent
        assert not props.unique_nf_property
        assert not props.nf_property

    def test_empty_system_vacuous(self):
        assert all(vars(check_properties(sys_of(0))).values())

    # The two smallest systems on which the component sweep decides the
    # unique normal form property: no system of three or four elements
    # reaches normal forms uniquely, fails to normalise and holds two
    # normal forms in one component, so a sweep that followed one
    # direction only would pass every exhaustive test above.
    @pytest.mark.parametrize("size, edges, flags", [
        # 0 and 1 reach the normal forms 3 and 4 and lead to the loop at 2,
        # which joins their components but reaches neither: only an edge
        # followed forward links 3 to 4.
        (5, [(0, 3), (0, 2), (1, 4), (1, 2), (2, 2)], (False, False, False, True, False)),
        # Each of 0 and 1 leads to a loop of its own: two components, each
        # with one normal form.
        (6, [(0, 3), (0, 2), (2, 2), (1, 4), (1, 5), (5, 5)], (False, False, True, True, False)),
    ], ids=["two-normal-forms-one-component", "two-components"])
    def test_the_component_sweep_decides(self, size, edges, flags):
        props = check_properties(FiniteARS(size, edges))
        assert tuple(vars(props).values()) == flags

    def test_matches_naive_exhaustively(self):
        for size in (0, 1, 2, 3):
            for sys in all_systems(size):
                assert vars(check_properties(sys)) == naive_props(sys)

    def test_matches_bfs_on_every_four_element_system(self):
        # All 65,536 relations on four elements.
        for sys in all_systems(4):
            assert vars(check_properties(sys)) == bfs_props(sys)


@st.composite
def labelled_systems(draw):
    """A system on k <= 8 elements (random edges plus a cycle through the
    first few, a self-loop when that cycle has length one), and the same
    edges with the elements relabelled injectively inside a carrier of
    `spread` elements."""
    k = draw(st.integers(1, 8))
    element = st.integers(0, k - 1)
    edges = set(draw(st.lists(st.tuples(element, element), max_size=2 * k)))
    cycle = draw(st.integers(0, k))
    edges |= {(i, (i + 1) % cycle) for i in range(cycle)}
    spread = draw(st.sampled_from([k, 10 ** 3, 10 ** 12]))
    labels = draw(st.lists(st.integers(0, spread - 1), min_size=k, max_size=k, unique=True))
    relabelled = FiniteARS(spread, ((labels[a], labels[b]) for a, b in edges))
    return FiniteARS(k, edges), relabelled


class TestCheckPropertiesDifferential:
    @settings(max_examples=300, deadline=None)
    @given(labelled_systems())
    def test_matches_naive(self, systems):
        # Elements outside every edge are isolated normal forms, which
        # change no flag, so the sparse copy must agree with the oracle
        # on the compact one.
        compact, relabelled = systems
        expected = naive_props(compact)
        assert vars(check_properties(compact)) == expected
        assert vars(check_properties(relabelled)) == expected


def mid_sized_system(rng):
    """20-40 elements in 2-4 basins of shuffled labels.  Each basin is
    ordered; every element but the basin's last has edges to 1-2 later
    ones, and the basin's last element is a sink.  Then: edges back to an
    earlier element of the basin (nontrivial SCCs, some of them bottom
    ones), self-loops, and now and then an edge across basins, an element
    cut off from its successors (a second sink), or a self-looping trap
    entered from two basins."""
    n = rng.randint(20, 40)
    labels = list(range(n))
    rng.shuffle(labels)
    cuts = sorted(rng.sample(range(5, n - 4, 5), rng.randint(1, 3)))
    basins = [labels[i:j] for i, j in zip([0] + cuts, cuts + [n])]
    edges = set()
    for basin in basins:
        m = len(basin)
        for i in range(m - 1):
            for j in rng.sample(range(i + 1, m), min(rng.randint(1, 2), m - 1 - i)):
                edges.add((basin[i], basin[j]))
        for _ in range(rng.randint(0, 2)):
            j = rng.randrange(1, m)
            edges.add((basin[j], basin[rng.randrange(max(0, j - 4), j)]))
    for _ in range(rng.randint(0, 2)):
        a = rng.randrange(n)
        edges.add((a, a))
    if rng.random() < 0.3:
        a, b = rng.sample(range(n), 2)
        edges.add((a, b))
    if rng.random() < 0.3:
        a = rng.randrange(n)
        edges = {e for e in edges if e[0] != a}
    if rng.random() < 0.3:
        # A trap no normal form is reached from, entered from two basins.
        z = rng.randrange(n)
        edges = {e for e in edges if e[0] != z} | {(z, z)}
        edges |= {(rng.choice(basin), z) for basin in rng.sample(basins, 2)}
    return FiniteARS(n, edges)


def relabelled(sys, carrier, rng):
    """The same edges with the elements relabelled injectively inside a
    carrier of the given size."""
    labels = rng.sample(range(carrier), sys.size)
    return FiniteARS(carrier, ((labels[a], labels[b]) for a, b in sys.edges))


class TestMidSizedSystems:
    # naive_props is O(n^4) and stops at a few elements; the BFS oracle
    # reaches the sizes where SCCs, sinks and components interact.
    def test_matches_bfs_oracle(self):
        rng = random.Random(20)
        seen = set()
        for _ in range(200):
            sys = mid_sized_system(rng)
            expected = bfs_props(sys)
            assert vars(check_properties(sys)) == expected
            assert vars(check_properties(relabelled(sys, 10 ** 12, rng))) == expected
            seen.add(tuple(expected.values()))
        # Every flag both ways, and normal forms reached uniquely but two of
        # them in one component, which only the component pass can tell.
        assert all(len({flags[i] for flags in seen}) == 2 for i in range(5))
        assert (False, False, False, True, False) in seen


class TestDeepSystems:
    # Deeper than the interpreter's recursion limit, so a recursive
    # depth-first search would fail here.
    N = 10 ** 4

    def test_chain(self):
        props = check_properties(FiniteARS(self.N, ((i, i + 1) for i in range(self.N - 1))))
        assert all(vars(props).values())

    def test_cycle(self):
        props = check_properties(FiniteARS(self.N, ((i, (i + 1) % self.N) for i in range(self.N))))
        assert vars(props) == {"normalising": False, "nf_property": True,
                               "unique_nf_property": True, "unique_nf_reached": True,
                               "confluent": True}

    def test_valley_far_from_its_normal_form(self):
        # Down the chain N-1 <- ... <- 0, then 0 -> 1 <- 0 (a valley at 1),
        # then back up; the valley's reduction walks the whole chain.
        sys = FiniteARS(self.N, ((i, i + 1) for i in range(self.N - 1)))
        down = tuple((i, BACKWARD) for i in range(self.N - 2, -1, -1))
        up = tuple((i, FORWARD) for i in range(1, self.N))
        conv = Conversion(self.N - 1, down + ((1, FORWARD), (0, BACKWARD)) + up)
        assert conv.valley_indices() == [self.N]
        assert eliminate_valleys(sys, conv) == Conversion(self.N - 1, down + up)


class TestSparseLabels:
    # Nothing may be allocated per element of a carrier this large.
    BIG = 10 ** 12

    def test_check_properties(self):
        sys = sys_of(self.BIG, (self.BIG - 1, 7), (3, 7))
        assert all(vars(check_properties(sys)).values())
        props = check_properties(sys_of(self.BIG, (self.BIG - 1, 7), (self.BIG - 1, 3)))
        assert props.normalising and not props.unique_nf_reached and not props.confluent

    def test_eliminate_valleys(self):
        sys = sys_of(self.BIG, (self.BIG - 1, 7), (3, 7))
        conv = Conversion(7, ((self.BIG - 1, BACKWARD), (7, FORWARD), (3, BACKWARD), (7, FORWARD)))
        assert eliminate_valleys(sys, conv) == Conversion(7, ((self.BIG - 1, BACKWARD), (7, FORWARD)))

    def test_valley_path_through_unordered_labels(self):
        # The valley v reduces along v -> c1 -> c2 -> c3 -> nf, whose
        # labels are in no order; v -> d -> c2 is as short, and the lower
        # label c1 wins the tie.  Positions must not reach the output.
        nf, p, q, v, c1, c2, c3, d = 10 ** 6, 12, 55, 7 * 10 ** 11, 3, self.BIG - 2, 40, 10 ** 11
        sys = sys_of(self.BIG, (p, v), (p, nf), (q, v), (q, nf), (v, d), (v, c1),
                     (d, c2), (c1, c2), (c2, c3), (c3, nf))
        conv = Conversion(nf, ((p, BACKWARD), (v, FORWARD), (q, BACKWARD), (nf, FORWARD)))
        out = eliminate_valleys(sys, conv)
        assert out == naive_eliminate_valleys(sys, conv)
        assert out == Conversion(nf, ((p, BACKWARD), (v, FORWARD), (c1, FORWARD),
                                      (c2, FORWARD), (c3, FORWARD), (nf, FORWARD)))

    def test_isolated_endpoint_is_a_normal_form(self):
        sys = sys_of(self.BIG, (self.BIG - 1, 7))
        assert eliminate_valleys(sys, Conversion(5, ())) == Conversion(5, ())
        with pytest.raises(PreconditionFailedError):
            eliminate_valleys(sys, Conversion(self.BIG - 1, ()))


class TestNormalFormPropositions:
    def test_implications_exhaustive_size_three(self):
        for sys in all_systems(3):
            p = check_properties(sys)
            assert not p.unique_nf_property or p.unique_nf_reached
            assert not p.nf_property or p.unique_nf_property
            if p.normalising:
                assert not p.unique_nf_property or p.nf_property
                assert not p.unique_nf_reached or p.unique_nf_property

    def test_normal_form_characterisation(self):
        # Normal forms reach only themselves; the converse needs the
        # relation to have no self-loops, so record applicability instead
        # of filtering.
        for sys in all_systems(3):
            nfs = normal_forms(sys)
            for a in range(sys.size):
                if a in nfs:
                    assert naive_reach(sys, a) == {a}
            anti_reflexive = all(a != b for a, b in sys.edges)
            if anti_reflexive:
                for a in range(sys.size):
                    if naive_reach(sys, a) == {a}:
                        assert a in nfs


class TestConversions:
    def test_validate_accepts(self):
        sys = sys_of(3, (1, 0), (1, 2))
        validate_conversion(sys, Conversion(0, ((1, BACKWARD), (2, FORWARD))))

    def test_validate_rejects_missing_edge(self):
        sys = sys_of(3, (1, 0))
        with pytest.raises(InvalidConversionError):
            validate_conversion(sys, Conversion(0, ((1, BACKWARD), (2, FORWARD))))

    @pytest.mark.parametrize("conv", [Conversion(5, ()), Conversion(0, ((5, FORWARD),))])
    def test_validate_rejects_element_out_of_range(self, conv):
        with pytest.raises(ValueError, match="element 5 outside 0..1"):
            validate_conversion(sys_of(2, (0, 1)), conv)

    @pytest.mark.parametrize("make", [iter, list, tuple], ids=["iterator", "list", "tuple"])
    def test_steps_are_kept_as_a_tuple(self, make):
        steps = ((1, FORWARD), (2, BACKWARD))
        conv = Conversion(0, make(steps))
        validate_conversion(sys_of(3, (0, 1), (2, 1)), conv)
        assert conv.steps == steps and conv.end == 2
        assert conv == Conversion(0, steps) and hash(conv) == hash(Conversion(0, steps))

    # A malformed step fails where the conversion is built, so nothing that
    # reads one (`end`, `format_conversion`, `validate_conversion`) sees it.
    @pytest.mark.parametrize("steps", [((1,),), (1,), ((1, FORWARD, 0),), ([1, FORWARD],),
                                       [(1,)], [5]],
                             ids=["one-tuple", "bare-int", "triple", "list-pair",
                                  "list-of-one-tuple", "list-of-int"])
    def test_malformed_step_rejected(self, steps):
        with pytest.raises(InvalidConversionError,
                           match=r"^step .* is not an \(element, direction\) pair$"):
            Conversion(0, steps)

    @pytest.mark.parametrize("direction", ["up", "sideways", None, 1])
    def test_unknown_direction_rejected(self, direction):
        with pytest.raises(InvalidConversionError,
                           match=f"^unknown direction {re.escape(repr(direction))}$"):
            Conversion(0, ((1, direction),))

    def test_valley_detection(self):
        conv = Conversion(0, ((1, BACKWARD), (2, FORWARD), (3, BACKWARD), (0, FORWARD)))
        assert conv.valley_indices() == [2]


@st.composite
def basin_conversions(draw):
    """A normalising system with unique normal forms reached, and a
    conversion between normal forms on it.

    Each basin's first element is its only normal form.  Every other
    element has an edge to an earlier element of its basin, so it reaches
    that normal form; extra edges inside the basin add peaks and cycles.
    The conversion is a random zig-zag from a normal form, closed by a
    shortest reduction of its last element."""
    k = draw(st.integers(1, 9))
    basin = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
    edges = set()
    for b in set(basin):
        members = [i for i in range(k) if basin[i] == b]
        for pos in range(1, len(members)):
            edges.add((members[pos], draw(st.sampled_from(members[:pos]))))
        if len(members) > 1:
            edges |= set(draw(st.lists(st.tuples(st.sampled_from(members[1:]),
                                                 st.sampled_from(members)), max_size=k)))
    sys = FiniteARS(k, edges)
    hops = {a: sorted([(y, FORWARD) for x, y in edges if x == a]
                      + [(x, BACKWARD) for x, y in edges if y == a]) for a in range(k)}
    start = at = draw(st.sampled_from(sorted({basin.index(b) for b in basin})))
    steps = []
    for _ in range(draw(st.integers(0, 12))):
        if not hops[at]:
            break
        at, d = draw(st.sampled_from(hops[at]))
        steps.append((at, d))
    steps += [(e, FORWARD) for e in naive_path_to_normal_form(sys, at)[1:]]
    return sys, Conversion(start, tuple(steps))


class TestEliminateValleys:
    # elements: 0 = the shared normal form, 1 and 3 = peaks, 2 = the valley
    SYS = sys_of(4, (1, 0), (1, 2), (3, 2), (3, 0), (2, 0))

    def test_no_valley_returned_unchanged(self):
        conv = Conversion(0, ((1, BACKWARD), (0, FORWARD)))
        assert eliminate_valleys(self.SYS, conv) == conv

    def test_single_valley(self):
        conv = Conversion(0, ((1, BACKWARD), (2, FORWARD), (3, BACKWARD), (0, FORWARD)))
        out = eliminate_valleys(self.SYS, conv)
        assert out == Conversion(0, ((1, BACKWARD), (2, FORWARD), (0, FORWARD)))
        assert out.valley_indices() == []
        assert out.start == out.end == 0

    def test_precondition_checked(self):
        peak = sys_of(3, (0, 1), (0, 2))   # two normal forms reached from 0
        with pytest.raises(PreconditionFailedError):
            eliminate_valleys(peak, Conversion(1, ((0, BACKWARD), (2, FORWARD))))

    def test_endpoints_must_be_normal(self):
        with pytest.raises(PreconditionFailedError):
            eliminate_valleys(self.SYS, Conversion(1, ((0, FORWARD), (1, BACKWARD))))

    @pytest.mark.parametrize("conv", [Conversion(0, ((1, FORWARD),)),
                                      Conversion(1, ((0, BACKWARD),))],
                             ids=["start", "end"])
    def test_an_endpoint_with_a_successor_is_rejected(self, conv):
        # 0 -> 1: element 0, at position 0 of the labels, is no normal form.
        with pytest.raises(PreconditionFailedError,
                           match="^conversion endpoints must be normal forms$"):
            eliminate_valleys(sys_of(2, (0, 1)), conv)

    def test_an_element_in_no_edge_is_a_normal_form(self):
        conv = Conversion(2, ())
        assert eliminate_valleys(sys_of(3, (1, 0)), conv) == conv

    def test_exhaustive_small_systems(self):
        checked = 0
        for sys in all_systems(3):
            props = check_properties(sys)
            if not (props.normalising and props.unique_nf_reached):
                continue
            for conv in all_conversions(sys, max_len=4):
                out = eliminate_valleys(sys, conv)
                assert out == naive_eliminate_valleys(sys, conv)
                assert out.valley_indices() == []
                assert out.start == conv.start and out.end == conv.end
                assert out.start == out.end
                validate_conversion(sys, out)
                checked += 1
        assert checked == 1551

    @settings(max_examples=300, deadline=None)
    @given(basin_conversions())
    def test_one_pass_matches_the_multi_pass_procedure(self, case):
        sys, conv = case
        validate_conversion(sys, conv)
        assert eliminate_valleys(sys, conv) == naive_eliminate_valleys(sys, conv)


@st.composite
def edge_inputs(draw):
    """A size of 0-6 and a list of edges inside it, repeats and any order allowed."""
    size = draw(st.integers(0, 6))
    element = st.integers(0, max(size - 1, 0))
    return size, draw(st.lists(st.tuples(element, element), max_size=12 if size else 0))


class TestStoredAdjacency:
    # A system keeps `labels` and the edge list `tails`/`heads`; `edges` is
    # built from them on each read.
    @settings(max_examples=200, deadline=None)
    @given(edge_inputs(), edge_inputs(), st.sampled_from([list, tuple, iter, frozenset]),
           st.randoms(use_true_random=False))
    def test_value_is_the_size_and_edge_set(self, case, other_case, make, rng):
        size, edges = case
        sys = FiniteARS(size, make(edges))
        assert sys.edges == frozenset(edges)
        shuffled = edges + edges[: len(edges) // 2]
        rng.shuffle(shuffled)
        again = FiniteARS(size, shuffled)
        assert again == sys and hash(again) == hash(sys)
        other = FiniteARS(*other_case)
        same = (other_case[0], frozenset(other_case[1])) == (size, frozenset(edges))
        assert (other == sys) == same and (hash(other) == hash(sys)) == same
        for copied in (pickle.loads(pickle.dumps(sys)), copy.copy(sys), copy.deepcopy(sys)):
            assert copied == sys and hash(copied) == hash(sys) and copied.edges == sys.edges
        assert repr(sys).startswith("FiniteARS(size=")
        assert eval(repr(sys), {"FiniteARS": FiniteARS}) == sys

    @settings(max_examples=200, deadline=None)
    @given(edge_inputs(), st.randoms(use_true_random=False))
    def test_edges_are_one_ascending_list_of_distinct_position_pairs(self, case, rng):
        size, edges = case
        repeated = edges + edges[: len(edges) // 2]
        rng.shuffle(repeated)
        sys = FiniteARS(size, repeated)
        pairs = list(zip(sys.tails, sys.heads))
        assert all(p < q for p, q in zip(pairs, pairs[1:]))
        assert len(sys.tails) == len(sys.heads) == len(sys.edges) == len(set(edges))
        assert {(sys.labels[x], sys.labels[y]) for x, y in pairs} == set(edges)

    def test_cli_edges_row_counts_the_edge_list(self, tmp_path):
        # A repeated edge and an element, 4, in no edge.
        path = tmp_path / "sys.txt"
        path.write_text("n=5\n1 -> 0\n1 -> 2\n3 -> 2\n3 -> 0\n2 -> 0\n1 -> 0\n")
        status, out = run_command(SessionConfig(report="kv"), "ars",
                                  {"action": "check", "system": str(path)})
        sys = FiniteARS(5, [(1, 0), (1, 2), (3, 2), (3, 0), (2, 0), (1, 0)])
        assert status == 0 and len(sys.tails) == len(sys.edges) == 5
        assert f"\nedges={len(sys.tails)}\n" in out

    def test_huge_carrier_is_built_and_checked_at_once(self):
        sys = FiniteARS(10 ** 12, [(0, 1)])
        assert sys.size == 10 ** 12 and sys.edges == {(0, 1)}
        assert all(vars(check_properties(sys)).values())


def edges_never_read():
    """`FiniteARS.edges` patched to raise: an analysis that rebuilt the
    edge set from the stored adjacency would fail."""
    def read(_sys):
        raise AssertionError("FiniteARS.edges was read")
    return mock.patch.object(FiniteARS, "edges", property(read))


class TestAnalysesReadTheAdjacency:
    @settings(max_examples=100, deadline=None)
    @given(labelled_systems())
    def test_check_properties_and_normal_forms(self, systems):
        compact, relabelled = systems
        expected = naive_props(compact)
        nfs = {a for a in range(compact.size) if all(x != a for x, _y in compact.edges)}
        with edges_never_read():
            assert vars(check_properties(compact)) == expected
            assert vars(check_properties(relabelled)) == expected
            assert normal_forms(compact) == nfs

    @settings(max_examples=100, deadline=None)
    @given(basin_conversions())
    def test_eliminate_valleys_and_validate_conversion(self, case):
        sys, conv = case
        expected = naive_eliminate_valleys(sys, conv)
        with edges_never_read():
            validate_conversion(sys, conv)
            assert eliminate_valleys(sys, conv) == expected

    @pytest.mark.parametrize("steps, message", [
        (((1, BACKWARD), (2, FORWARD)), "^missing edge 1 -> 2$"),
        (((2, BACKWARD),), "^missing edge 2 -> 0$"),
    ], ids=["no-such-edge", "element-in-no-edge"])
    def test_missing_edge(self, steps, message):
        sys = sys_of(3, (1, 0))
        with edges_never_read(), pytest.raises(InvalidConversionError, match=message):
            validate_conversion(sys, Conversion(0, steps))

    def test_cli_ars_actions(self, tmp_path):
        # A repeated edge, a blank line and an element in no edge.
        path = tmp_path / "sys.txt"
        path.write_text("n=5\n1 -> 0\n1 -> 2\n\n3 -> 2\n3 -> 0\n2 -> 0\n1 -> 0\n")
        requests = [{"action": "check", "system": str(path)},
                    {"action": "valleys", "system": str(path),
                     "conversion": "0 <- 1 -> 2 <- 3 -> 0"}]
        expected = [run_command(SessionConfig(report="kv"), "ars", r) for r in requests]
        assert expected[0][0] == expected[1][0] == 0 and "\nedges=5\n" in expected[0][1]
        with edges_never_read():
            assert [run_command(SessionConfig(report="kv"), "ars", r)
                    for r in requests] == expected


def bottom_pass(**kwargs):
    """`ars._one_bottom_each`, the bottom pass (two rounds of backward sweeps
    over the elements that reach no normal form), patched: to raise with
    `side_effect`, or with `wraps=ars._one_bottom_each` to count its
    calls."""
    return mock.patch.object(ars, "_one_bottom_each", **kwargs)


def needs_bottom_pass(sys):
    """Whether confluence is left open by the backward sweep: some element
    reaches no normal form, none reaches two, and no edge leads from an
    element that reaches one to an element that does not."""
    nfs = normal_forms(sys)
    reach = {a: naive_reach(sys, a) & nfs for a in range(sys.size)}
    return (not all(reach.values()) and all(len(r) <= 1 for r in reach.values())
            and all(reach[b] or not reach[a] for a, b in sys.edges))


class TestBottomPassRunsOnlyWhereNoNormalFormIsReached:
    # The backward sweep decides every flag of a normalising system; only the
    # elements that reach no normal form need bottom SCCs.
    RAISES = AssertionError("the bottom pass ran")

    @settings(max_examples=200, deadline=None)
    @given(labelled_systems())
    def test_check_properties(self, systems):
        compact, relabelled = systems
        expected = naive_props(compact)
        for sys in (compact, relabelled):
            if expected["normalising"]:
                with bottom_pass(side_effect=self.RAISES):
                    assert vars(check_properties(sys)) == expected
            else:
                with bottom_pass(wraps=ars._one_bottom_each) as spy:
                    assert vars(check_properties(sys)) == expected
                assert spy.called == needs_bottom_pass(compact)

    def test_mid_sized_systems(self):
        rng = random.Random(20)
        normalising, answers = 0, set()
        for _ in range(200):
            sys = mid_sized_system(rng)
            expected = bfs_props(sys)
            if expected["normalising"]:
                normalising += 1
                with bottom_pass(side_effect=self.RAISES):
                    assert vars(check_properties(sys)) == expected
            else:
                with bottom_pass(wraps=ars._one_bottom_each) as spy:
                    assert vars(check_properties(sys)) == expected
                assert spy.called == needs_bottom_pass(sys)
                if spy.called:
                    answers.add(expected["confluent"])
        # Both sides of the split, and both answers of the pass, are seen.
        assert normalising and answers == {True, False}

    @settings(max_examples=100, deadline=None)
    @given(basin_conversions())
    def test_eliminate_valleys(self, case):
        sys, conv = case
        expected = naive_eliminate_valleys(sys, conv)
        with bottom_pass(side_effect=self.RAISES):
            assert eliminate_valleys(sys, conv) == expected

    @pytest.mark.parametrize("edges, confluent", [
        ([(0, 1), (2, 3), (3, 2)], True),
        ([(0, 1), (2, 3), (3, 2), (2, 2), (1, 1)], True),
        ([(0, 1), (1, 1), (2, 2), (3, 2), (3, 1)], False),
        # A cycle above a bottom cycle.  The roots are 0, in no bottom SCC,
        # and 2, so the second round must sweep from the last root first.
        ([(0, 1), (1, 0), (0, 2), (2, 3), (3, 2)], True),
        # The pass runs only where no edge leaks, so the nf property holds.
        ([(0, 1), (1, 1), (0, 2), (2, 2)], False),
    ], ids=["one-cycle", "two-separate-loops", "two-loops-below-one",
            "cycle-above-a-bottom-cycle", "two-loops-below-one-nf-property"])
    def test_the_pass_decides_confluence(self, edges, confluent):
        with bottom_pass(wraps=ars._one_bottom_each) as spy:
            props = check_properties(FiniteARS(4, edges))
        assert spy.called and not props.normalising and props.confluent == confluent
