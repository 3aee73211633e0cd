"""Every top-level definition in ``src/hypmax`` is used by the package or
has a stated reason to stay.

A definition is used when some other place in the package refers to its
name: an ``ast.Name`` or ``ast.Attribute`` that reads it, or an import
alias.  A mention in a docstring or comment is not a reference, and
neither is a reference inside the definition itself.  The names below have
no such reference; each says why it stays.  A new helper that only its own
unit tests call fails here until it is used or named below."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hypmax"

KEEP = {
    # claims of the acceptance suite (tests/test_acceptance.py)
    "drsets.slice_volume": "ac06: horizontal slices scale by e^{-k nu} and sum to the cylinder volume",
    "drsets.trig_sandwich_volume": "ac12: the trigonon volume envelope of the cross-backend oracle",
    "drsets.sample_halfball_arrays": "ac12: forward-geodesic half-ball samples land in the half-plane half ball",
    "drsets.h2_to_na": "ac12: the map of the half-plane onto the abelian q = 1 backend",
    "drsets.na_to_h2": "the inverse of h2_to_na, the cross-backend map's round trip",
    "htype.shadow_boundary": "ac05: the boundary shadow identity and its gauge sandwich",
    "htype.dist_s": "ac04 and ac12: the Riemannian distance on S = NA",
    "htype.spoint": "ac04: the constructor of a checked point of S",
    "experiments.stacked_chain": "ac08: the stacked chain whose overlap decays",
    # test oracles
    "experiments.dirac_witness_lattice": "the oracle for the closed form of eta",
    "experiments.verify_maximal_family": "the oracle that build_maximal_family's family is maximal",
    "hyp2.admissible_hull": "the half-plane hull lemma that K3 rests on",
    "drsets.admissible_hull_cyl": "the cylinder form of the hull lemma",
    "drsets.annulus_check": "the only check of the gauge annulus lemma",
    "maxop._member_pass": "the serial member pass, one generator, that the split pass is compared with",
    # the L^p comparison of balls and half balls will report it
    "maxop.lp_norm": "L^p norms for the ball vs half-ball comparison",
    # public API: the README or the benchmark names it
    "maxop.maximal_fn": "the pointwise operator the README documents",
    "maxop.operator_compare": "the h2-field benchmark workload",
    "htype.identity": "the identity of S, the counterpart of identity_n",
    # looked up by name in perfbench/tracing.py
    "htype.dist_n": "a traced layer of the benchmark",
}


def _definitions(tree: ast.Module) -> dict:
    """name -> node of each top-level function, class and assigned name."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, ast.Assign):
            out.update((t.id, node) for t in node.targets if isinstance(t, ast.Name))
    return out


def _references(node: ast.AST) -> Counter:
    """How often each name is read (ast.Name, ast.Attribute) or imported
    (an import alias) under ``node``."""
    refs = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            refs[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            refs[n.attr] += 1
        elif isinstance(n, ast.alias):
            refs[n.name] += 1
    return refs


def unreferenced() -> set:
    """``module.name`` of each top-level definition that nothing in the
    package outside the definition refers to."""
    trees = {f.stem: ast.parse(f.read_text()) for f in sorted(SRC.glob("*.py"))}
    total = sum((_references(t) for t in trees.values()), Counter())
    return {
        f"{mod}.{name}"
        for mod, tree in trees.items()
        for name, node in _definitions(tree).items()
        if total[name] == _references(node)[name]
    }


def test_every_unreferenced_definition_is_kept_for_a_stated_reason():
    found = unreferenced()
    assert not found - KEEP.keys(), f"referenced by nothing in src and not in KEEP: {sorted(found - KEEP.keys())}"
    # a name that is now used, or gone, leaves the list
    assert not KEEP.keys() - found, f"in KEEP but referenced in src or not defined: {sorted(KEEP.keys() - found)}"
