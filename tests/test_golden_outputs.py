"""Golden outputs of the surface and extension layers.

Each section below runs a fixed corpus through one part of the public API and
hashes a canonical JSON record of every result, or of the exception type and
message of every failure.  The hashes pin the exact outputs, so a refactor of
``assemble_surface`` or of the extension layer's vertex placement that changes
any diagram, chain, trace or error message fails here.

Corpus:
  surface:<file>   ``diagram_to_json`` of ``assemble_surface`` on seeded chains
                   (coefficients in +-2) of every groups/*.grp at radius 3.
  routed:<ctx>     routed fillings of kernel loops of length <= 6 on the
                   push-down benchmark's balls and routes, their assembled
                   diagrams and their push-downs.
  tight:<ctx>:*    ``chart``, ``embed_chain``, ``kernel_cycle_to_extension``,
                   ``lift_image_cycle``, ``route_filling`` and ``push_down`` on
                   a radius-3 extension ball and a radius-3 kernel ball, where
                   many placements leave the ball.

To regenerate after an intended output change, run this file as a script;
it prints the new hashes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from functools import lru_cache
from pathlib import Path
from random import Random

import pytest

from homfill import extension
from homfill.cayley import OneCycle, TwoChain, build_ball
from homfill.cli import load_group
from homfill.errors import HomfillError
from homfill.filling import enumerate_identity_cycles
from homfill.presentation import apply_lift
from homfill.surface import assemble_surface, diagram_to_json
from homfill.words import parse_word

GROUPS = Path(__file__).resolve().parent.parent / "groups"
QUAD_F = [max(n, n * n) for n in range(64)]
# (file, h radius, k radius, lift-image cap, routes), as in the push-down benchmark
ROUTED = {
    "z3": ("z3_ext.grp", 7, 10, 4, ("t1", "t1'", "t1 t1", "t1' t1'", "")),
    "heis": ("heis_ext.grp", 8, 12, 5, ("t1", "t1'")),
}

GOLDEN = {
    "surface:f2": "8745a6180c5f1fcba11786d658a42ef983101e93d75b47d490ff2679944916cb",
    "surface:f2_triangle": "9b3480017eb1d1bacdb2daa457c6b7e5658e782796139833b287c4b262fdde1b",
    "surface:heis_ext": "c61832fe004f11fcdf48b22ffb799ba782959d543fe336d0c5e917395ad82ecc",
    "surface:z2": "4e89322e626d2d11d26541386bc826d876b6bd10963515711f4df6606baaae71",
    "surface:z2_by_f2": "c17595134e39763b26523919d5c842ef273b14ce2763b0fa65f86eac510b4fc0",
    "surface:z2_redundant": "b8bce1ba67513ff5460f81f2e2460a29f2849f856fd1dfd96d3ef8dcf5894804",
    "surface:z3_ext": "49c1c9758f290d15298854f3904476df029c760ae5df09d60431d519109b2b8f",
    "routed:z3": "fedbd6ca556438527b37ea19ff5124bfa330da911c864741ad1e49f638345a45",
    "routed:heis": "655f7c7d009aaf738e7bd09da09a249f64e51160a1a0e080b5abc4a67e78406e",
    "tight:z3:chart": "2d88a1c4c9f1d43339d7d90f5c83e41cd60cec196bc47798a9d87268d09777c8",
    "tight:z3:embed": "60f0848179bb067737ed605c30deacf564d82a3e1b198cb95cbd7d9a2902c56b",
    "tight:z3:lift": "653b4f6306520172e8d1fdbbdcf5e6ea6338f2d9a48e8de99e99ffb573350cc9",
    "tight:z3:route": "905399a014722094e6f62386d41246beb79d8905f3c5d7104780666752b5dff5",
    "tight:heis:chart": "e0a290de1483067486e66febba32a6d184b792be561c3edc0b6a15ae0c04d53c",
    "tight:heis:embed": "48e2e9595b69909a844f2304b3042838f38fcf9d93963727bdd510a7f3ced6a5",
    "tight:heis:lift": "d5209133cbc8234673734ff7e7ef6079906b50bd991bb489e149b876eb7d7951",
    "tight:heis:route": "9126f3d0a0cd1b3d5fd200086fb748b6a36935a00c19cae9c59a2bd85f6e85ff",
}


def _plain(value):
    """A JSON-ready copy: chains and cycles as sorted pairs, dataclasses as
    field dicts."""
    if isinstance(value, (OneCycle, TwoChain)):
        return [list(pair) for pair in value.key()]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return value


def _attempt(fn, *args):
    """The call's result, or its HomfillError as (type, message)."""
    try:
        return fn(*args), None
    except HomfillError as exc:
        return None, [type(exc).__name__, str(exc)]


def _record(fn, *args):
    result, error = _attempt(fn, *args)
    return {"error": error} if error else {"ok": _plain(result)}


@lru_cache(maxsize=None)
def _group(file: str):
    return load_group(str(GROUPS / file))


@lru_cache(maxsize=None)
def _balls(file: str, h_radius: int, k_radius: int):
    group = _group(file)
    h_ball = build_ball(group.backend, group.hom_pres, h_radius)
    k_ball = build_ball(group.k_backend, group.k_pres, k_radius)
    constants, error = _attempt(
        extension.compute_constants, k_ball, group.layout, group.lifts, group.hom_pres.base.relators
    )
    return group, h_ball, k_ball, constants, error


def _surface(file: str) -> list:
    group = _group(file)
    ball = build_ball(group.backend, group.hom_pres, 3)
    rng = Random(file)
    out = []
    for _ in range(100):
        coeffs = {}
        for _ in range(rng.randint(1, 8)):
            if ball.cells:
                coeffs[rng.randrange(len(ball.cells))] = rng.choice((-2, -1, 1, 2))
        chain = TwoChain(coeffs)
        diagram, error = _attempt(assemble_surface, ball, chain)
        out.append({"chain": _plain(chain), "error": error} if error else diagram_to_json(diagram))
    return out


def _loops(k_ball, lift, max_len: int, cap: int | None):
    """Identity loops of length <= max_len whose forward lift images (and
    their images) stay within ``cap`` letters, as the benchmark picks them."""
    loops = []
    for _, cycle, word in enumerate_identity_cycles(k_ball, max_len):
        reach = 0
        for edge in cycle.coeffs:
            for v in (k_ball.edges[edge][0], k_ball.edges[edge][2]):
                image = apply_lift(lift, "forward", k_ball.vertices[v])
                reach = max(reach, len(image), len(apply_lift(lift, "forward", image)))
        if cap is None or reach <= cap:
            loops.append((cycle, word))
    return loops


def _routes(group, names) -> list:
    return [parse_word(r, group.name_index) for r in names]


def _push(h_ball, k_ball, constants, cycle, route):
    """The routed filling and its push-down as a record, and the chain."""
    chain, error = _attempt(extension.route_filling, h_ball, k_ball, constants, cycle, route)
    if error:
        return {"route": error}, None
    gamma = extension.kernel_cycle_to_extension(h_ball, k_ball, cycle)
    record = {"route": _plain(chain)}
    record["push_down"] = _record(extension.push_down, h_ball, gamma, chain, constants, QUAD_F, "quadratic")
    return record, chain


def _routed(ctx: str) -> list:
    file, h_radius, k_radius, cap, names = ROUTED[ctx]
    group, h_ball, k_ball, constants, _ = _balls(file, h_radius, k_radius)
    out = []
    for cycle, word in _loops(k_ball, group.lifts[0], 6, cap):
        for route in _routes(group, names):
            record, chain = _push(h_ball, k_ball, constants, cycle, route)
            if chain is not None:
                record["diagram"] = diagram_to_json(assemble_surface(h_ball, chain))
            out.append([list(word), list(route), record])
    return out


def _tight(ctx: str, part: str) -> list:
    file, _, _, _, names = ROUTED[ctx]
    group, h_ball, k_ball, constants, error = _balls(file, 3, 3)
    cosets = sorted(set(h_ball.coset_labels), key=lambda w: (len(w), w))
    out = []
    if part == "chart":
        for coset in (c for c in cosets if len(c) <= 2):
            for e in range(len(h_ball.edges)):
                out.append(_record(extension.chart, h_ball, k_ball, coset, OneCycle({e: 1})))
            for c in range(len(h_ball.cells)):
                out.append(_record(extension.chart, h_ball, k_ball, coset, TwoChain({c: 1})))
    elif part == "embed":
        for coset in cosets:
            for c in range(len(k_ball.cells)):
                out.append(_record(extension.embed_chain, h_ball, coset, k_ball, TwoChain({c: 1})))
        for e in range(len(k_ball.edges)):
            out.append(_record(extension.kernel_cycle_to_extension, h_ball, k_ball, OneCycle({e: 1})))
    elif part == "lift":
        for lift in group.lifts:
            for direction in ("forward", "backward"):
                for e in range(len(k_ball.edges)):
                    out.append(_record(extension.lift_image_cycle, k_ball, OneCycle({e: 1}), lift, direction))
    else:
        out.append({"constants": error or _plain(constants.as_json())})
        if constants is not None:
            for cycle, word in _loops(k_ball, group.lifts[0], 6, None):
                for route in _routes(group, names):
                    out.append([list(word), list(route), _push(h_ball, k_ball, constants, cycle, route)[0]])
    return out


def _section(name: str) -> list:
    kind, _, rest = name.partition(":")
    if kind == "surface":
        return _surface(rest + ".grp")
    if kind == "routed":
        return _routed(rest)
    ctx, part = rest.split(":")
    return _tight(ctx, part)


def _digest(records) -> str:
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_group_file_is_covered():
    files = {p.stem for p in GROUPS.glob("*.grp")}
    assert files == {name.split(":")[1] for name in GOLDEN if name.startswith("surface:")}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(name):
    assert _digest(_section(name)) == GOLDEN[name]


if __name__ == "__main__":
    for name in GOLDEN:
        print(f'    "{name}": "{_digest(_section(name))}",')
