import dataclasses
import os

import pytest

from homfill import extension
from homfill.backends import ExtensionBackend, FreeAbelianBackend
from homfill.cayley import OneCycle, TwoChain, boundary_2, build_ball, loop_to_cycle
from homfill.errors import DomainError, InvariantError, ResourceError
from homfill.cli import load_group
from homfill.extension import (
    COLLAR_CERTS,
    RELATOR_CERTS,
    Certificate,
    _collars,
    chain_coset_words,
    compute_constants,
    detect_t_cycles,
    kernel_cycle_to_extension,
    lift_image_cycle,
    pull_back_filling,
    push_down,
    push_forward_filling,
    restrict_to_coset,
    route_filling,
    verify_theorem_bound,
)
from homfill.filling import harea_fill
from homfill.presentation import AutLift, apply_lift, build_extension_presentation
from homfill.surface import assemble_surface, diagram_from_json, diagram_to_json
from homfill.words import inverse_word, parse_word

from conftest import ExtensionSetup, z2_presentation
from oracles import in_coset_reference, restrict_reference

K_NI = {"a": 0, "b": 1}
H_NI = {"a": 0, "b": 1, "t1": 2}

QUAD_F = [max(n, n * n) for n in range(40)]


def test_constants_identity(z3_constants):
    c = z3_constants
    assert (c.C, c.C_prime, c.C_double_prime) == (1, 1, 0)
    assert c.rho == 4
    assert c.M == 1
    # certificate of the collar loop is empty for the identity lift
    assert c.certs["collar_psi_phi"][(0, 0)].area == 0
    assert not c.certs["collar_psi_phi"][(0, 0)].chain


def test_constants_shear(heis_constants):
    c = heis_constants
    assert (c.C, c.C_prime, c.C_double_prime) == (1, 1, 0)
    assert c.rho == 5  # t1' a t1 b' a'
    assert c.M == 1
    assert c.certs["phi_relator"][(0, 0)].area == 1


@pytest.mark.parametrize("name", ["z3_ext", "heis_ext", "z2_by_f2", "rotation"])
def test_certificate_table(name):
    # the table's families, keys, loops and minimal fillings, and C, C', C''
    # and M as maxima over named families, at kernel radius 5
    if name == "rotation":
        # a -> b, b -> a': its forward and backward relator images differ as
        # words, which the group files' lifts do not show
        setup = ExtensionSetup(AutLift(((2,), (-1,)), ((-2,), (1,))), h_radius=1, k_radius=5)
        k_ball, layout, lifts, ext_relators = setup.k_ball, setup.layout, (setup.lift,), setup.h_pres.base.relators
    else:
        group = load_group(os.path.join(os.path.dirname(__file__), "..", "groups", f"{name}.grp"))
        k_ball = build_ball(group.k_backend, group.k_pres, 5)
        layout, lifts, ext_relators = group.layout, group.lifts, group.hom_pres.base.relators
    c = compute_constants(k_ball, layout, lifts, ext_relators)
    assert list(c.certs) == [*RELATOR_CERTS, *COLLAR_CERTS]
    assert set(c.certs) == set(c.as_json()["certificates"])

    def fwd(lift, w):
        return apply_lift(lift, "forward", w)

    def bwd(lift, w):
        return apply_lift(lift, "backward", w)

    relators = k_ball.hom_pres.base.relators
    loops = {
        "phi_relator": lambda lift, r: fwd(lift, relators[r]),
        "psi_relator": lambda lift, r: bwd(lift, relators[r]),
        "psi_phi_relator": lambda lift, r: bwd(lift, fwd(lift, relators[r])),
        "collar_psi_phi": lambda lift, j: (j + 1,) + inverse_word(bwd(lift, fwd(lift, (j + 1,)))),
        "collar_phi_psi": lambda lift, j: (j + 1,) + inverse_word(fwd(lift, bwd(lift, (j + 1,)))),
    }
    indices = range(len(lifts))
    keys = {family: [(i, r) for i in indices for r in k_ball.hom_pres.marked_relators] for family in RELATOR_CERTS}
    keys.update({family: [(i, j) for i in indices for j in range(layout.k_rank)] for family in COLLAR_CERTS})
    for family, certs in c.certs.items():
        assert sorted(certs) == keys[family], family
        for (i, key), cert in certs.items():
            assert cert.loop_word == loops[family](lifts[i], key)
            assert boundary_2(k_ball, cert.chain) == loop_to_cycle(k_ball, 0, cert.loop_word)
            assert cert.area == cert.chain.area() == harea_fill(k_ball, boundary_2(k_ball, cert.chain)).area

    def areas(*families):
        return [cert.area for family in families for cert in c.certs[family].values()]

    assert c.C == max(areas("phi_relator"), default=1)
    assert c.C_prime == max(areas("psi_relator", "psi_phi_relator"), default=1)
    assert c.C_double_prime == max(areas("collar_psi_phi"), default=0)
    assert c.M == max(c.C, c.C_prime, c.C_double_prime * (2 * c.rho + 1), 1)


def test_certificates_are_labelled_by_their_stable_letters(tmp_path):
    # z2_by_f2 with its lifts t1, t2 renamed s, u: each certificate key
    # names its lift's stable letter, not its position
    with open(os.path.join(os.path.dirname(__file__), "..", "groups", "z2_by_f2.grp")) as f:
        text = f.read()
    path = tmp_path / "z2_by_f2_su.grp"
    path.write_text(text.replace("lift t1", "lift s").replace("lift t2", "lift u"))
    group = load_group(str(path))
    assert group.hom_pres.base.generators[-2:] == ("s", "u")
    k_ball = build_ball(group.k_backend, group.k_pres, 3)
    c = compute_constants(k_ball, group.layout, group.lifts, group.hom_pres.base.relators)
    certificates = c.as_json()["certificates"]
    assert sorted(certificates["phi_relator"]) == ["s/0", "u/0"]
    assert sorted(certificates["collar_psi_phi"]) == ["s/0", "s/1", "u/0", "u/1"]


def test_constants_need_room():
    setup = ExtensionSetup(AutLift.identity(2), h_radius=3, k_radius=1)
    with pytest.raises(ResourceError, match="certificate loop"):
        compute_constants(setup.k_ball, setup.layout, [setup.lift], setup.h_pres.base.relators)


def test_lift_image_cycle_identity(z3_setup):
    gamma = loop_to_cycle(z3_setup.k_ball, 0, parse_word("a b a' b'", K_NI))
    assert lift_image_cycle(z3_setup.k_ball, gamma, z3_setup.lift, "forward") == gamma


def test_lift_image_cycle_shear(heis_setup):
    k_ball = heis_setup.k_ball
    gamma = loop_to_cycle(k_ball, 0, parse_word("a b a' b'", K_NI))
    image = lift_image_cycle(k_ball, gamma, heis_setup.lift, "forward")
    # the image of the commutator loop is the traced image word's loop
    expected = loop_to_cycle(k_ball, 0, parse_word("a b b b' a' b'", K_NI))
    assert image == expected


def test_push_forward_identity_is_identity(z3_setup, z3_constants):
    k_ball = z3_setup.k_ball
    gamma = loop_to_cycle(k_ball, 0, parse_word("a b a' b'", K_NI))
    chain = harea_fill(k_ball, gamma).chain
    assert push_forward_filling(k_ball, chain, z3_setup.lift, z3_constants) == chain


def test_pull_back_identity_is_identity(z3_setup, z3_constants):
    k_ball = z3_setup.k_ball
    gamma = loop_to_cycle(k_ball, 0, parse_word("a b a' b'", K_NI))
    chain = harea_fill(k_ball, gamma).chain
    assert pull_back_filling(k_ball, chain, gamma, z3_setup.lift, z3_constants) == chain


def test_transfers_of_empty_chain(z3_setup, z3_constants):
    from homfill.cayley import OneCycle

    k_ball = z3_setup.k_ball
    empty = TwoChain()
    assert push_forward_filling(k_ball, empty, z3_setup.lift, z3_constants) == empty
    assert pull_back_filling(k_ball, empty, OneCycle(), z3_setup.lift, z3_constants) == empty


def test_transfer_bounds_shear(heis_setup, heis_constants):
    k_ball = heis_setup.k_ball
    for word in ("a b a' b'", "a a b a' a' b'", "a b a b a' b' a' b'"):
        gamma = loop_to_cycle(k_ball, 0, parse_word(word, K_NI))
        chain = harea_fill(k_ball, gamma).chain
        fwd = push_forward_filling(k_ball, chain, heis_setup.lift, heis_constants)
        assert boundary_2(k_ball, fwd) == lift_image_cycle(
            k_ball, gamma, heis_setup.lift, "forward"
        )
        assert fwd.area() <= heis_constants.C * chain.area()
        # direct minimal fill of the image can only be smaller
        direct = harea_fill(k_ball, boundary_2(k_ball, fwd)).area
        assert direct <= fwd.area()
        back = pull_back_filling(k_ball, fwd, gamma, heis_setup.lift, heis_constants)
        assert boundary_2(k_ball, back) == gamma
        bound = heis_constants.C_prime * fwd.area() + heis_constants.C_double_prime * gamma.length()
        assert back.area() <= bound


def test_collar_families_keep_their_own_translates(z3_setup, z3_constants):
    """Both collar families transfer with no lift and share their (lift,
    generator) keys.  In a hand-built table where they differ on one key,
    each family's transfer gives its own chain, whether it runs first or
    after the other family's translates are kept."""
    k_ball = z3_setup.k_ball
    a = k_ball.vertex_of(parse_word("a", K_NI))
    certs = {family: dict(table) for family, table in z3_constants.certs.items()}
    certs["collar_psi_phi"][(0, 0)] = Certificate((), TwoChain({k_ball.cell_at(0, 0): 1}), 1)
    certs["collar_phi_psi"][(0, 0)] = Certificate((), TwoChain({k_ball.cell_at(a, 0): -2}), 2)
    x = k_ball.vertex_of(parse_word("b", K_NI))
    cycle = OneCycle({k_ball.step(x, 1)[0]: 3})  # the edge a from x: key (0, 0)

    def translated(family):
        """The certificate's cells based at y moved to x y, times 3."""
        out = {}
        for cell_id, c in certs[family][(0, 0)].chain.coeffs.items():
            cell = k_ball.cells[cell_id]
            base = k_ball.vertex_of(k_ball.vertices[x] + k_ball.vertices[cell.base])
            out[k_ball.cell_at(base, cell.relator)] = 3 * c
        return TwoChain(out)

    want = {family: translated(family) for family in COLLAR_CERTS}
    assert want["collar_psi_phi"] != want["collar_phi_psi"]
    for order in (COLLAR_CERTS, COLLAR_CERTS[::-1]):
        constants = dataclasses.replace(z3_constants, certs=certs)
        assert not constants.translates
        for family in order + order:
            assert _collars(constants, family, cycle, 0) == want[family], family
        assert sorted(key[0] for key in constants.translates) == sorted(COLLAR_CERTS)


@pytest.mark.parametrize("name, h_radius, k_radius", [("z3_ext", 7, 10), ("heis_ext", 8, 12)])
def test_edge_cosets_match_both_labels(name, h_radius, k_radius):
    """On the extension and kernel balls the push-down benchmark uses,
    every edge's ``edge_cosets`` entry and every coset's restriction agree
    with comparing both endpoints' labels."""
    group = load_group(os.path.join(os.path.dirname(__file__), "..", "groups", f"{name}.grp"))
    h_ball = build_ball(group.backend, group.hom_pres, h_radius)
    k_ball = build_ball(group.k_backend, group.k_pres, k_radius)
    for ball in (h_ball, k_ball):
        cosets = sorted(set(ball.coset_labels))
        everything = OneCycle({e: e % 7 - 3 for e in range(len(ball.edges))})
        for e, label in enumerate(ball.edge_cosets):
            assert [label == w for w in cosets] == [in_coset_reference(ball, e, w) for w in cosets]
        for w in cosets:
            assert restrict_to_coset(ball, everything, w) == restrict_reference(ball, everything, w)
    assert len(set(h_ball.coset_labels)) == 2 * h_radius + 1
    assert None in h_ball.edge_cosets


def test_pull_back_rejects_wrong_input(z3_setup, z3_constants):
    k_ball = z3_setup.k_ball
    gamma = loop_to_cycle(k_ball, 0, parse_word("a b a' b'", K_NI))
    wrong = TwoChain({5: 1})
    if boundary_2(k_ball, wrong) != lift_image_cycle(k_ball, gamma, z3_setup.lift, "forward"):
        with pytest.raises(DomainError):
            pull_back_filling(k_ball, wrong, gamma, z3_setup.lift, z3_constants)


def routed_commutator(setup, constants, route):
    gamma_k = loop_to_cycle(setup.k_ball, 0, parse_word("a b a' b'", K_NI))
    chain = route_filling(setup.h_ball, setup.k_ball, constants, gamma_k, route)
    gamma_h = kernel_cycle_to_extension(setup.h_ball, setup.k_ball, gamma_k)
    return gamma_h, chain


def test_routed_filling_spec_example(z3_setup, z3_constants):
    gamma_h, chain = routed_commutator(z3_setup, z3_constants, (3,))
    # four conjugation cells plus one commutator cell at the far coset
    assert chain.area() == 5
    assert boundary_2(z3_setup.h_ball, chain) == gamma_h
    words = chain_coset_words(z3_setup.h_ball, chain)
    assert words == {(), (3,)}


def test_detect_t_cycles_routed(z3_setup, z3_constants):
    gamma_h, chain = routed_commutator(z3_setup, z3_constants, (3,))
    diagram = assemble_surface(z3_setup.h_ball, chain)
    cycles = detect_t_cycles(diagram, z3_setup.layout)
    assert len(cycles) == 1
    tc = cycles[0]
    assert tc.stable_letter == 0
    assert tc.coset_word == ()
    assert tc.sign == 1
    assert len(tc.faces) == 4
    # inner boundary is the original commutator cycle
    assert tc.inner_boundary == gamma_h


def test_detect_t_cycles_doubled(z3_setup, z3_constants):
    gamma_h, chain = routed_commutator(z3_setup, z3_constants, (3,))
    diagram = assemble_surface(z3_setup.h_ball, chain.scale(2))
    cycles = detect_t_cycles(diagram, z3_setup.layout)
    assert len(cycles) == 1
    assert len(cycles[0].faces) == 8


def test_detect_t_cycles_kernel_only(z3_setup):
    chain = TwoChain({0: 1})  # a kernel commutator cell
    cell = z3_setup.h_ball.cells[0]
    assert not z3_setup.layout.is_conj_relator(cell.relator)
    diagram = assemble_surface(z3_setup.h_ball, chain)
    assert detect_t_cycles(diagram, z3_setup.layout) == []


def test_detect_t_cycles_rejects_t_boundary(z3_setup):
    # a single conjugation cell has t-edges on its boundary
    conj = next(
        i
        for i, c in enumerate(z3_setup.h_ball.cells)
        if z3_setup.layout.is_conj_relator(c.relator)
    )
    diagram = assemble_surface(z3_setup.h_ball, TwoChain({conj: 1}))
    with pytest.raises(DomainError, match="stable-letter edges"):
        detect_t_cycles(diagram, z3_setup.layout)


@pytest.mark.parametrize(
    "corrupt, violation",
    [
        (lambda gluing: gluing.append(gluing[0]), "matched twice"),
        (lambda gluing: gluing[0].__setitem__(2, True), "needs equal traversal signs"),
    ],
    ids=["glued-twice", "flipped"],
)
def test_detect_t_cycles_refuses_an_invalid_diagram(z3_setup, z3_constants, corrupt, violation):
    # the decoded routed diagram with one gluing repeated, or flipped
    _, chain = routed_commutator(z3_setup, z3_constants, (3,))
    doc = diagram_to_json(assemble_surface(z3_setup.h_ball, chain))
    corrupt(doc["gluing"])
    diagram = diagram_from_json(doc, z3_setup.h_ball)
    with pytest.raises(DomainError, match=f"cannot detect t-cycles on an invalid diagram: .*{violation}"):
        detect_t_cycles(diagram, z3_setup.layout)


def test_pushdown_worked_example(z3_setup, z3_constants):
    gamma_h, chain = routed_commutator(z3_setup, z3_constants, (3,))
    trace = push_down(z3_setup.h_ball, gamma_h, chain, z3_constants, QUAD_F, "quadratic")
    assert trace.initial_area == 5
    assert len(trace.steps) == 1
    assert trace.final_area == 1
    assert trace.steps[0].direction == "backward"
    assert trace.surviving_coset == "e"
    assert trace.all_steps_ok and trace.final_bound_ok
    # final chain is the single kernel commutator cell
    assert boundary_2(z3_setup.h_ball, trace.final_chain) == gamma_h
    assert trace.final_chain.area() == harea_fill(z3_setup.k_ball, loop_to_cycle(
        z3_setup.k_ball, 0, parse_word("a b a' b'", K_NI))).area


def test_pushdown_checks_each_steps_inner_filling(z3_setup, z3_constants, monkeypatch):
    # a kernel cell added to the first step's embedded inner filling changes
    # the chain's boundary, and the step says so
    gamma_h, chain = routed_commutator(z3_setup, z3_constants, (3,))
    h_ball = z3_setup.h_ball
    kernel_cell = h_ball.cell_cosets.index(((),))
    embed, calls = extension.embed_chain, []

    def corrupted(*args):
        calls.append(args)
        out = embed(*args)
        return out + TwoChain({kernel_cell: 1}) if len(calls) == 1 else out

    monkeypatch.setattr(extension, "embed_chain", corrupted)
    with pytest.raises(InvariantError, match="push-down step changed the boundary"):
        push_down(h_ball, gamma_h, chain, z3_constants, QUAD_F, "quadratic")
    assert len(calls) == 1


def test_pushdown_negative_route_uses_forward(z3_setup, z3_constants):
    gamma_h, chain = routed_commutator(z3_setup, z3_constants, (-3,))
    trace = push_down(z3_setup.h_ball, gamma_h, chain, z3_constants, QUAD_F, "quadratic")
    assert [s.direction for s in trace.steps] == ["forward"]
    assert trace.final_area == 1


def test_pushdown_depth_two(z3_setup, z3_constants):
    gamma_h, chain = routed_commutator(z3_setup, z3_constants, (3, 3))
    trace = push_down(z3_setup.h_ball, gamma_h, chain, z3_constants, QUAD_F, "quadratic")
    assert len(trace.steps) == 2
    assert trace.max_coset_length == 2
    assert [s.coset_word for s in trace.steps] == ["t1 t1", "t1"]
    assert trace.final_area == 1


def test_pushdown_kernel_chain_no_steps(z3_setup, z3_constants):
    k_ball = z3_setup.k_ball
    gamma_k = loop_to_cycle(k_ball, 0, parse_word("a b a' b'", K_NI))
    chain = route_filling(z3_setup.h_ball, k_ball, z3_constants, gamma_k, ())
    gamma_h = kernel_cycle_to_extension(z3_setup.h_ball, k_ball, gamma_k)
    trace = push_down(z3_setup.h_ball, gamma_h, chain, z3_constants, QUAD_F, "quadratic")
    assert trace.steps == []
    assert trace.final_chain == chain
    # the bound report on a zero-step trace passes trivially
    report = verify_theorem_bound(trace, QUAD_F, g_value=0)
    assert report.overall and report.step_checks == []


def test_pushdown_optimality_sandwich(z3_setup, z3_constants):
    gamma_k = loop_to_cycle(z3_setup.k_ball, 0, parse_word("a a b b a' a' b' b'", K_NI))
    chain = route_filling(z3_setup.h_ball, z3_setup.k_ball, z3_constants, gamma_k, (3,))
    gamma_h = kernel_cycle_to_extension(z3_setup.h_ball, z3_setup.k_ball, gamma_k)
    trace = push_down(z3_setup.h_ball, gamma_h, chain, z3_constants, QUAD_F, "quadratic")
    minimal = harea_fill(z3_setup.k_ball, gamma_k).area
    assert trace.final_area >= minimal


def test_two_stable_letters():
    k_pres = z2_presentation()
    k_backend = FreeAbelianBackend(2)
    lifts = [AutLift.identity(2, 0), AutLift.identity(2, 1)]
    h_pres, layout = build_extension_presentation(k_pres, lifts, k_normal_form=k_backend.normal_form)
    h_backend = ExtensionBackend(k_backend, lifts)
    k_ball = build_ball(k_backend, k_pres, 6)
    h_ball = build_ball(h_backend, h_pres, 6)
    constants = compute_constants(k_ball, layout, lifts, h_pres.base.relators)
    gamma_k = loop_to_cycle(k_ball, 0, parse_word("a b a' b'", K_NI))
    chain = route_filling(h_ball, k_ball, constants, gamma_k, (3, 4))
    gamma_h = kernel_cycle_to_extension(h_ball, k_ball, gamma_k)
    words = chain_coset_words(h_ball, chain)
    assert words == {(), (3,), (3, 4)}
    trace = push_down(h_ball, gamma_h, chain, constants, QUAD_F, "quadratic")
    assert [s.coset_word for s in trace.steps] == ["t1 t2", "t1"]
    assert trace.final_area == 1
    assert trace.surviving_coset == "e"


def test_verify_theorem_bound_passes(z3_setup, z3_constants):
    gamma_h, chain = routed_commutator(z3_setup, z3_constants, (3,))
    trace = push_down(z3_setup.h_ball, gamma_h, chain, z3_constants, QUAD_F, "quadratic")
    report = verify_theorem_bound(trace, QUAD_F, g_value=1)
    assert report.overall
    assert report.final_area == 1
    assert report.f_geq_n


def test_verify_theorem_bound_flags_corruption(z3_setup, z3_constants):
    gamma_h, chain = routed_commutator(z3_setup, z3_constants, (3,))
    trace = push_down(z3_setup.h_ball, gamma_h, chain, z3_constants, QUAD_F, "quadratic")
    bad_step = dataclasses.replace(trace.steps[0], area_after=10_000)
    bad = dataclasses.replace(trace, steps=[bad_step])
    report = verify_theorem_bound(bad, QUAD_F, g_value=1)
    assert not report.step_checks[0][3]
    assert not report.overall


def test_verify_theorem_bound_needs_g(z3_setup, z3_constants):
    gamma_h, chain = routed_commutator(z3_setup, z3_constants, (3, 3))
    trace = push_down(z3_setup.h_ball, gamma_h, chain, z3_constants, QUAD_F, "quadratic")
    with pytest.raises(DomainError, match="below the trace"):
        verify_theorem_bound(trace, QUAD_F, g_value=1)


def test_pushdown_rejects_non_kernel_gamma(z3_setup, z3_constants):
    h_ball = z3_setup.h_ball
    gamma = loop_to_cycle(h_ball, 0, parse_word("a t1 a' t1'", H_NI))
    chain = harea_fill(h_ball, gamma).chain
    with pytest.raises(DomainError, match="kernel subcomplex"):
        push_down(h_ball, gamma, chain, z3_constants, QUAD_F, "quadratic")
