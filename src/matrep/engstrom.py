"""Engstrom representations of matroids and the maps they induce.

The pipeline: a rank- and order-reversing immersion of the lattice of flats
into a boolean lattice turns each flat into a join of copies of a template
complex X; the homotopy colimit over the lattice minus its bottom is the
representation T, covered by one subcomplex per atom.  One diagram is built
per representation, over the whole lattice, and its hocolim is Y; T and
every subcomplex of T over an up-set of flats are read off it, as the
hocolims of the diagram over those up-sets.  The arrangement check reads
the flats and the diagram's spaces, the x-arrangement check the cells of Y
and of the up-set complexes, and equivariance is decided on X alone, after
the one refusal of weak maps (``_admissible_flat_map``).  Reduced Betti
numbers of T are a weighted count of suspensions of join powers of X, with
Whitney numbers of the first kind as weights; the formula side gets them by
Betti arithmetic from those of X (the Kunneth formula for joins), building
no complex.  Weak maps of matroids induce maps of hocolims between
representations, acting on the prodsimplicial cells (``diagrams``).
"""

from __future__ import annotations

import functools
import itertools

from .complexes import (
    BettiVector,
    NotSimplicial,
    SimplicialComplex,
    SimplicialMap,
    copies_complex,
    homology_map,
    reduced_betti,
)
from .diagrams import FinitePoset, HocolimMap, InclusionDiagram, hocolim
from .labels import label_key, sort_labels
from .matroid import FlatMap, Matroid, MatroidError, SetMap, induced_flat_map


class InvalidImmersion(ValueError):
    pass


class NotAdmissible(ValueError):
    pass


class NoAtomInImage(ValueError):
    pass


class NotFree(ValueError):
    pass


class Immersion:
    """An assignment of subsets of {1..rho} to flats; see validate_immersion."""

    def __init__(self, matroid: Matroid, rho: int, assignment):
        self.matroid = matroid
        self.rho = rho
        # flat -> frozenset of indices, from pairs or a mapping
        self._mapping = {frozenset(f): frozenset(s) for f, s in dict(assignment).items()}

    @classmethod
    def from_dict(cls, matroid: Matroid, rho: int, mapping) -> "Immersion":
        return cls(matroid, rho, mapping)

    def as_dict(self) -> dict:
        return dict(self._mapping)

    def __call__(self, flat) -> frozenset:
        return self._mapping[frozenset(flat)]

    def __eq__(self, other):
        return (
            isinstance(other, Immersion)
            and self.matroid == other.matroid
            and self.rho == other.rho
            and self._mapping == other._mapping
        )

    def __hash__(self):
        return hash((self.matroid, self.rho, frozenset(self._mapping.items())))


def canonical_immersion(matroid: Matroid, rho: int) -> Immersion:
    """The immersion sending a rank-k flat to {1, ..., rho - k}."""
    if rho < matroid.rank_total:
        raise InvalidImmersion(f"need rho >= {matroid.rank_total}")
    lat = matroid.lattice()
    return Immersion.from_dict(
        matroid, rho, {f: frozenset(range(1, rho - lat.rank_of[f] + 1)) for f in lat.flats}
    )


def validate_immersion(immersion: Immersion):
    """Check the rank- and order-reversing conditions.

    Returns (True, None) or (False, witness string) for the first failure.
    """
    lat = immersion.matroid.lattice()
    mapping = immersion.as_dict()
    rho = immersion.rho
    # the bits outside 1..rho, found without listing 1..rho
    outside = {b for b in frozenset().union(*mapping.values()) if not (isinstance(b, int) and 1 <= b <= rho)}
    for f in lat.flats:
        if f not in mapping:
            return False, f"no value at flat {sort_labels(f)}"
        if not outside.isdisjoint(mapping[f]):
            return False, f"value at {sort_labels(f)} leaves 1..{rho}"
        if len(mapping[f]) != rho - lat.rank_of[f]:
            return False, f"rank reversal fails at {sort_labels(f)}"
    for p, q in lat.covers():
        if not mapping[q] <= mapping[p]:
            return False, f"order reversal fails at {sort_labels(p)} < {sort_labels(q)}"
    if len(mapping) > len(lat.flats):  # every flat has a value, so some key is no flat
        stray = sort_labels(mapping.keys() - set(lat.flats))[0]
        return False, f"value at {sort_labels(stray)}, which is not a flat"
    return True, None


class ImmersedMatroid:
    """A matroid with an immersion of it, checked by validate_immersion."""

    def __init__(self, matroid: Matroid, immersion: Immersion):
        if immersion.matroid != matroid:
            raise InvalidImmersion("immersion belongs to a different matroid")
        ok, witness = validate_immersion(immersion)
        if not ok:
            raise InvalidImmersion(witness)
        self.matroid = matroid
        self.immersion = immersion

    @property
    def rho(self) -> int:
        return self.immersion.rho


def immersed(matroid: Matroid, rho: int | None = None) -> ImmersedMatroid:
    return ImmersedMatroid(matroid, canonical_immersion(matroid, matroid.rank_total if rho is None else rho))


def is_admissible(tau: SetMap, l: Immersion, l_prime: Immersion) -> bool:
    """Whether l(p) is contained in l'(tau#(p)) for every flat p."""
    return _inadmissible_flat(l, l_prime, induced_flat_map(tau)) is None


def _inadmissible_flat(l: Immersion, l_prime: Immersion, g: FlatMap):
    """The first flat p, in lattice order, with l(p) not contained in
    l'(g(p)), or None when there is none; immersions of different rho
    raise ``NotAdmissible``."""
    if l.rho != l_prime.rho:
        raise NotAdmissible("immersions must share rho")
    return next((p for p in g.source_lattice.flats if not l(p) <= l_prime(g(p))), None)


def build_diagram(im: ImmersedMatroid, x: SimplicialComplex) -> InclusionDiagram:
    """The lattice-of-flats diagram whose space at p joins the copies of x
    selected by the immersion value at p.

    Its poset takes the lattice's covers as they are, and its inclusions
    are not checked: for a cover p < q the validated immersion has l(q)
    contained in l(p), and a join of copies of a nonempty x over fewer
    indices is a subcomplex of the join over more, each of its facets lying
    in a facet of the larger join.

    The space depends only on the immersion value, so one complex is built
    per distinct value and every flat with that value holds the same
    object; it equals the one built for the flat alone.  Its vertex order
    and simplex table are then computed once, however many flats read it.
    """
    if x.is_empty:
        raise ValueError("the template complex must be nonempty")
    lat = im.matroid.lattice()
    flats = sort_labels(lat.flats)
    space_of = functools.cache(lambda value: copies_complex(x, value))
    spaces = {f: space_of(im.immersion(f)) for f in flats}
    return InclusionDiagram._known(FinitePoset._from_covers(flats, lat.covers()), spaces)


class Representation:
    """T as the hocolim over the lattice minus its bottom.

    ``hocolim`` is that of its own diagram over the whole lattice
    (``build_diagram``), built here, so its complex is Y.  T is the part
    of it over the flats other than the bottom, and the subcomplexes of T
    over up-sets of flats, the atom subcomplexes among them, are the parts
    over those up-sets, read off once per flat when first read
    (``Hocolim.over_upset``).  Each vertex is a Grothendieck element (flat,
    simplex), so its flat is its first entry.  All of them are hocolims,
    built only as far as they are read, so their Betti numbers come from
    their cells and list no facet (``diagrams``): T's prodsimplicial
    model, and for Y and the up-set complexes, which have a least flat,
    the simplices of its space.
    """

    def __init__(self, immersed: ImmersedMatroid, template: SimplicialComplex):
        self.immersed = immersed
        self.template = template
        self.hocolim = hocolim(build_diagram(immersed, template))
        bottom = self.lattice.bottom
        self.T = self.hocolim.over_upset(lambda p: p != bottom)
        self._upsets = {bottom: self.T}

    @property
    def lattice(self):
        return self.immersed.matroid.lattice()

    @functools.cached_property
    def atom_subcomplexes(self) -> dict:
        """Atom flat -> the subcomplex of T over the atom's up-set."""
        return {a: self.upset_complex(a) for a in self.lattice.atoms}

    @property
    def Y(self) -> SimplicialComplex:
        """Hocolim over the whole lattice; T is its full subcomplex on the
        vertices over the flats other than the bottom."""
        return self.hocolim.complex

    def upset_complex(self, flat) -> SimplicialComplex:
        """Subcomplex of T over the flats containing ``flat``, built once per
        flat; it realizes the intersection of the atom subcomplexes of the
        atoms below ``flat``."""
        flat = frozenset(flat)
        if flat not in self._upsets:
            self._upsets[flat] = self.hocolim.over_upset(lambda p: flat <= p)
        return self._upsets[flat]


def build_representation(im: ImmersedMatroid, x: SimplicialComplex) -> Representation:
    """T and Y from the one diagram of the whole lattice (``Representation``)."""
    return Representation(im, x)


def _layer_betti(b: BettiVector, e: int, k: int) -> BettiVector:
    """Betti numbers of the k-fold suspension of the e-fold join power of a
    complex with Betti numbers ``b``.

    The k-fold suspension of a space is its join with S^{k-1}, and S^{-1},
    the empty complex, is the join unit; over a field the Betti numbers of
    a join follow from those of its factors (Kunneth).
    """
    total = BettiVector({k - 1: 1})
    for _ in range(e):
        total = total.join_with(b)
    return total


def expected_betti(im: ImmersedMatroid, x: SimplicialComplex) -> BettiVector:
    """Betti numbers of T predicted by the wedge decomposition.

    The rank-i layer contributes w_i copies of the (i-1)-fold suspension of
    the (rho-i)-fold join power of x; reduced Betti numbers add over wedges.
    A rank-0 matroid has no atoms and no layer, and T is the empty complex,
    S^{-1}, whose one reduced Betti number is 1 in degree -1.
    """
    if im.matroid.rank_total == 0:
        return BettiVector({-1: 1})
    w = im.matroid.lattice().whitney()
    b = reduced_betti(x)
    total = BettiVector()
    for i in range(1, im.matroid.rank_total + 1):
        if w[i] == 0:
            continue
        total = total + _layer_betti(b, im.rho - i, i - 1).scale(w[i])
    return total


def _closed_atom_sets(rep: Representation) -> set:
    """The sets of atoms closed under intersecting atom subcomplexes.

    A set of atoms is closed when no further atom subcomplex contains the
    intersection of the chosen ones.  The empty set is always closed: its
    intersection is all of Y, whose vertices over the bottom flat lie in
    no atom subcomplex.  The atom subcomplex of a is the full subcomplex
    of T on the vertices over flats containing a, and the vertices of T
    over a flat p are the nonempty simplices of D(p).  So vertex sets
    contain each other as the sets of live flats under them do, the flats
    of T whose space is not empty, and only those are read: no subcomplex,
    poset or vertex is built.
    """
    atoms = rep.lattice.atoms
    live = frozenset(p for p, space in rep.T._space_at.items() if not space.is_empty)
    flat_sets = {a: frozenset(p for p in live if a <= p) for a in atoms}
    closed = {frozenset()}
    for k in range(1, len(atoms) + 1):
        for combo in itertools.combinations(atoms, k):
            meet = live
            for a in combo:
                meet = meet & flat_sets[a]
            closed.add(frozenset(b for b in atoms if meet <= flat_sets[b]))
    return closed


def arrangement_flats(rep: Representation) -> FinitePoset:
    """The intersection poset of the atom subcomplexes: the closed sets of
    atoms, ordered by containment."""
    return FinitePoset.from_leq(_closed_atom_sets(rep), lambda s, t: s <= t)


def arrangement_matches_lattice(rep: Representation) -> bool:
    """Whether the intersection poset is isomorphic to the lattice of flats,
    under atom-set <-> flat (join of the atoms, bottom for the empty set).

    The lattice of flats is atomistic, so each flat is the join of the
    atoms below it and f -> atoms_below(f) is an order isomorphism onto its
    image.  The closed sets are ordered by containment as well, so the two
    posets match under that correspondence exactly when the closed sets are
    the sets of atoms below the flats.
    """
    lat = rep.lattice
    return _closed_atom_sets(rep) == {frozenset(lat.atoms_below(f)) for f in lat.flats}


def reroute_annihilating(tau: SetMap) -> FlatMap:
    """Replace a weak map's flat map by a non-annihilating one.

    Atoms sent to the bottom flat are rerouted to the lexicographically
    smallest atom in the image; the rest of the lattice map is rebuilt as
    the join of the patched atom values, which keeps it order-preserving.
    """
    return _reroute(induced_flat_map(tau))


def _reroute(base: FlatMap) -> FlatMap:
    """``reroute_annihilating`` on the flat map of a weak map."""
    src_lat = base.source_lattice
    tgt_lat = base.target_lattice
    image_atoms = sorted(
        {
            base(p)
            for p in src_lat.flats
            if p != src_lat.bottom and tgt_lat.rank_of[base(p)] == 1
        },
        key=label_key,
    )
    if not image_atoms:
        raise NoAtomInImage("the image contains no atom to reroute into")
    a = image_atoms[0]
    patched_atom = {
        p: (a if base(p) == tgt_lat.bottom else base(p)) for p in src_lat.atoms
    }
    assignment = {}
    for p in src_lat.flats:
        below = src_lat.atoms_below(p)
        if below:
            assignment[p] = tgt_lat.join_all(patched_atom[q] for q in below)
        else:
            assignment[p] = base(p)
    rerouted = FlatMap(src_lat, tgt_lat, assignment)
    assert all(tgt_lat.rank_of[rerouted(q)] == 1 for q in src_lat.atoms)
    return rerouted


def induced_representation_map(
    tau: SetMap,
    im_m: ImmersedMatroid,
    im_n: ImmersedMatroid,
    x: SimplicialComplex,
    y_complex: SimplicialComplex | None = None,
    f_x: SimplicialMap | None = None,
) -> HocolimMap:
    """The map T_x(M, l) -> T_y(N, l') induced by a weak map.

    A vertex (p, s) of T_x(M, l), s a simplex of the copies of x at the
    flat p, goes to (g(p), {(i, f_x(v)) : (i, v) in s}), where g is the
    flat map of tau, rerouted first if it sends an atom to the bottom
    (``reroute_annihilating``).  It is the map of hocolims of a diagram
    morphism, so its homology map reads prodsimplicial cells and builds
    neither T.
    """
    if y_complex is None:
        y_complex = x
    if f_x is None:
        f_x = SimplicialMap.identity(x)
    if f_x.source != x or f_x.target != y_complex:
        raise ValueError("f_x must map the source template to the target template")
    source = build_representation(im_m, x).T
    target = build_representation(im_n, y_complex).T
    return _representation_map(tau, im_m.immersion, im_n.immersion, source, target, f_x)


def _admissible_flat_map(tau, l, l_prime) -> FlatMap:
    """The flat map of tau, derived once (one ``classify_map`` call): refused
    unless admissible, and if it annihilates an atom, rerouted
    (``reroute_annihilating``) and refused unless still admissible."""
    g = induced_flat_map(tau)
    if _inadmissible_flat(l, l_prime, g) is not None:
        raise NotAdmissible("the weak map does not respect the immersions")
    if any(g.target_lattice.rank_of[g(a)] != 1 for a in g.source_lattice.atoms):
        g = _reroute(g)
        p = _inadmissible_flat(l, l_prime, g)
        if p is not None:
            raise NotAdmissible(f"rerouted image violates the immersions at {sort_labels(p)}")
    return g


def _representation_map(tau, l, l_prime, source, target, f_x) -> HocolimMap:
    """The map of ``induced_representation_map`` between the given T's, on
    the flat map of ``_admissible_flat_map``.

    Nothing else is checked: the flat map is order-preserving, f_x is
    simplicial and is applied copywise at every flat, and admissibility,
    l(p) in l'(g(p)), puts the image of each flat's space inside the space
    at g(p), which is not the bottom, as no atom goes there.
    """
    g = _admissible_flat_map(tau, l, l_prime)
    lat = g.source_lattice
    poset_map = {p: g(p) for p in lat.flats if p != lat.bottom}

    def copywise(vertex):
        return vertex[0], f_x(vertex[1])

    return HocolimMap(source, target, poset_map, dict.fromkeys(poset_map, copywise))


def verify_surjectivity(tau, im_m, im_n, x) -> bool:
    """Surjective admissible weak maps give surjections in homology, hence
    componentwise Betti decrease."""
    if not tau.is_surjective():  # the induced map refuses a map that is not weak
        raise MatroidError("needs a surjective weak map")
    hm = homology_map(induced_representation_map(tau, im_m, im_n, x))
    return hm.is_surjective() and hm.source_betti.dominates(hm.target_betti)


def verify_strict_decrease(tau, im_m, im_n, x) -> bool:
    """Under a genuine rank drop, Betti numbers strictly decrease in every
    degree carried by the layers between the two ranks."""
    r_m = im_m.matroid.rank_total
    r_n = im_n.matroid.rank_total
    if r_m <= r_n:
        raise ValueError("strict decrease needs a rank drop")
    if not tau.is_surjective():
        raise MatroidError("needs a surjective weak map")
    # refused as the induced map refuses it: immersions of different rho,
    # a map that is not weak or not admissible, or one with no atom in its
    # image, when no map of representations exists
    _admissible_flat_map(tau, im_m.immersion, im_n.immersion)
    betti_m = expected_betti(im_m, x)
    betti_n = expected_betti(im_n, x)
    b = reduced_betti(x)
    flagged = set()
    for i in range(r_n + 1, r_m + 1):
        flagged.update(_layer_betti(b, im_m.rho - i, i - 1).degrees())
    if not flagged:
        return True
    return all(betti_m[k] > betti_n[k] for k in flagged)


def verify_stability(im: ImmersedMatroid, x: SimplicialComplex) -> bool:
    """T at an oversized rho is, at the Betti level, the join of the extra
    join power of x with T at the matroid's own rank, for rank >= 1."""
    r = im.matroid.rank_total
    if r == 0:
        raise ValueError("stability needs rank >= 1: T of a rank-0 matroid is S^{-1} at every rho")
    rep_rho = build_representation(im, x)
    rep_r = build_representation(immersed(im.matroid), x)
    extra = _layer_betti(reduced_betti(x), im.rho - r, 0)
    combined = extra.join_with(reduced_betti(rep_r.T))
    return reduced_betti(rep_rho.T) == combined


class GroupAction:
    """A finite group of simplicial symmetries of a complex, given by
    generator vertex permutations; the action must be free."""

    def __init__(self, komplex: SimplicialComplex, generators):
        self.complex = komplex
        verts = tuple(sort_labels(komplex.vertices))
        gens = []
        for g in generators:
            perm = dict(g)
            if set(perm) != set(verts) or set(perm.values()) != set(verts):
                raise NotSimplicial("generator is not a vertex permutation")
            gens.append(perm)
        self.generators = gens
        identity = {v: v for v in verts}
        seen = {tuple(identity[v] for v in verts): identity}
        frontier = [identity]
        while frontier:
            new = []
            for e in frontier:
                for g in gens:
                    composed = {v: g[e[v]] for v in verts}
                    key = tuple(composed[v] for v in verts)
                    if key not in seen:
                        seen[key] = composed
                        new.append(composed)
            frontier = new
            if len(seen) > 100_000:
                raise ValueError("group too large")
        self.elements = list(seen.values())
        self.order = len(self.elements)
        self._identity = identity
        for e in self.nonidentity_elements():
            _check_simplicial_and_free(komplex, e)

    def nonidentity_elements(self):
        return [e for e in self.elements if e != self._identity]


def _check_simplicial_and_free(komplex: SimplicialComplex, perm):
    """Raise NotSimplicial if the vertex permutation ``perm`` sends a simplex
    of the complex outside it, and otherwise NotFree if it fixes one
    setwise; the message names the failing facet or cycle, the first in
    ``label_key`` order.

    A bijection of the vertices is simplicial iff it maps facets onto facets.
    It fixes a simplex setwise iff the simplex is a union of its cycles, so
    iff one of its cycles lies in a facet.
    """
    facets = komplex.facets
    broken = [f for f in facets if frozenset(map(perm.__getitem__, f)) not in facets]
    if broken:
        raise NotSimplicial(f"permutation breaks facet {sort_labels(min(broken, key=label_key))}")
    cycle_of = {}
    for v in komplex.vertices:
        if v not in cycle_of:
            cycle = [v]
            while perm[cycle[-1]] != v:
                cycle.append(perm[cycle[-1]])
            cycle_of.update(dict.fromkeys(cycle, frozenset(cycle)))
    fixed = {cycle_of[v] for f in facets for v in f if cycle_of[v] <= f}
    if fixed:
        raise NotFree(f"permutation fixes the cycle {sort_labels(min(fixed, key=label_key))} setwise")


def check_equivariance(action: GroupAction, tau, im_m, im_n, x) -> bool:
    """The action on x extends copywise to both representations; it must
    stay simplicial and free there, and the induced map must commute with
    it.  Both are decided on x, once an inadmissible weak map is refused
    (``_admissible_flat_map``); no representation or map is built.

    The lift of a permutation to Y fixes every flat: it sends (p, s) to
    (p, the copywise image of s).  So a simplex (p0, s0) < ... < (pk, sk)
    of Y goes to a simplex exactly when each image of s_i lies in D(p_i);
    and it is fixed setwise exactly when each s_i is, since a permutation
    of a chain that keeps its order fixes every element.  A copywise lift
    to a join of k >= 1 copies of x keeps each copy, so it is simplicial
    and free there exactly when the permutation is on x; at rho = 0 every
    space is empty.  So is the lift on Y, and on T and every atom
    intersection, its full subcomplexes.  The induced map's components
    are copywise identities, so it commutes with the lifts by construction.
    """
    if action.complex != x:
        raise ValueError("action must act on the template complex")
    if x.is_empty:
        raise ValueError("the template complex must be nonempty")
    _admissible_flat_map(tau, im_m.immersion, im_n.immersion)
    if im_m.rho >= 1:
        for perm in action.nonidentity_elements():
            _check_simplicial_and_free(x, perm)
    return True


class XArrangementReport:
    """Betti- and dimension-level checks of the covering-family conditions."""

    def __init__(
        self,
        d: int,
        total_space_ok: bool,
        atom_spaces_ok: dict,
        intersections_ok: dict,
        codimension_drops_ok: dict,
    ):
        self.d = d
        self.total_space_ok = total_space_ok
        self.atom_spaces_ok = atom_spaces_ok
        self.intersections_ok = intersections_ok
        self.codimension_drops_ok = codimension_drops_ok

    @property
    def all_pass(self) -> bool:
        return (
            self.total_space_ok
            and all(self.atom_spaces_ok.values())
            and all(self.intersections_ok.values())
            and all(self.codimension_drops_ok.values())
        )


def verify_xarrangement(rep: Representation, x: SimplicialComplex) -> XArrangementReport:
    """Check, at the level of Betti vectors and dimensions, that Y and the
    atom subcomplexes intersect like join powers of x: Y matches the full
    join power, each atom subcomplex drops one, every intersection matches
    the join power of its corank, and each non-containing atom subcomplex
    cuts an intersection down by exactly one more step."""
    lat = rep.lattice
    rho = rep.immersed.rho
    b = reduced_betti(x)
    power_betti = {e: _layer_betti(b, e, 0) for e in range(rho + 1)}
    power_dim = {e: e * (x.dim + 1) - 1 for e in range(rho + 1)}

    total_ok = reduced_betti(rep.Y) == power_betti[rho] and rep.Y.dim == power_dim[rho]
    atom_ok = {}
    for a, sub in rep.atom_subcomplexes.items():
        atom_ok[a] = (
            reduced_betti(sub) == power_betti[rho - 1] and sub.dim == power_dim[rho - 1]
        )
    inter_ok, drops_ok = {}, {}
    for f in lat.flats:
        if f == lat.bottom:
            continue
        sub = rep.upset_complex(f)
        e = rho - lat.rank_of[f]
        inter_ok[f] = reduced_betti(sub) == power_betti[e] and sub.dim == power_dim[e]
        # the atom subcomplex of a contains sub exactly when a is in f: below
        # the top, D(f) is not empty, so sub has vertices over f
        for a in lat.atoms:
            if not a <= f:
                drops_ok[(f, a)] = reduced_betti(rep.upset_complex(lat.join(f, a))) == power_betti[e - 1]
    return XArrangementReport(rho, total_ok, atom_ok, inter_ok, drops_ok)
