"""Every name a library module imports is used, and every function has a user.

Deleting a function must not leave its import behind.  The package
``__init__`` is exempt: its imports are the public re-exports.  Deleting a
caller must not leave an orphan: each module-level function is used
elsewhere in the package, exported in ``assoform.__all__`` or wrapped by
the benchmark tracer, and each method of a library class is named as an
attribute in the package, the tests or the tracer, or overrides a method
of a base class.  ``linalg`` keeps one elimination, at primes from one
sequence, ``_primes``: the echelon mod p, and the kernel lift that reuses
its factors.  Two functions, ``certified_rank`` for a rank and
``canonical_kernel`` for a kernel, run the echelon and move to the next
prime when its certificate fails, so no caller hand-rolls its own loop and
no exact core is left.  ``canonical_kernel`` is the one kernel reader:
``null_space``, ``reduce_rows``, ``kernel_basis``, omega's
``GradedIdeal.socle_kernel`` and Wolfe's ``_min_norm_point`` take their
vectors from it, in their own columns.  One function, ``integer_vector``,
scales a rational vector to integers, and one, ``integer_rows``, turns the
rows of a ``QMatrix`` into the library's integer rows; only the six public
functions that take a ``QMatrix`` call it.  One function,
``ideals._koszul_basis``, enumerates and indexes the bases of the Koszul
modules; it and ``poly.monomials_of_degree`` hold the package's only
module-level caches, and ``GradedIdeal`` caches only its ranks.  One
function, ``inverse_system.apolar_hilbert``, ranks catalecticants, and only
``GradedIdeal`` and ``min_nonideal_monomial`` read an ideal's exact RREF
pieces: ``recognize_decomposable`` reduces the generators' own rows of I_d,
and the rest of the package reads membership in a complete intersection
off its inverse system.  Only ``associated_form`` solves for omega, through
``GradedIdeal.socle_kernel``, and only the ``stability`` command runs
Wolfe's ``torus_destabilizer``: ``binary_stability`` reads its witness off
the root multiplicities.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest
from test_tracer_names import _traced

import assoform

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "assoform"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_an_unused_import_is_caught():
    tree = ast.parse("import math\nfrom fractions import Fraction\nx = Fraction(1)\n")
    assert _unused_imports(tree) == ["line 1: math"]


def _names(node: ast.AST) -> list[str]:
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def _orphans(trees: dict[str, ast.Module], kept: set[str]) -> list[str]:
    """Module-level functions named nowhere in the package outside their own body."""
    uses = Counter(name for tree in trees.values() for name in _names(tree))
    return [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name not in kept
            and uses[node.name] == _names(node).count(node.name)]


def test_every_function_has_a_user():
    kept = set(assoform.__all__) | {name.split(".")[0] for _, name in _traced()}
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in PACKAGE.glob("*.py")}
    assert _orphans(trees, kept) == []


def test_an_orphan_function_is_caught():
    trees = {"a": ast.parse("def f():\n    return f()\n\ndef g():\n    pass\n"),
             "b": ast.parse("from a import g\nx = g()\n\ndef h():\n    pass\n")}
    assert _orphans(trees, {"h"}) == ["a.f"]


def _attrs(node: ast.AST) -> list[str]:
    return [n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)]


def _orphan_methods(classes: dict[str, tuple[ast.Module, dict]], uses: Counter) -> list[str]:
    """Methods named in uses only inside their own body.

    Special methods, which the language calls, and overrides of a base-class
    method, which the base class calls, are exempt.
    """
    out = []
    for module, (tree, namespace) in classes.items():
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            bases = namespace[node.name].__mro__[1:]
            for item in node.body:
                name = getattr(item, "name", "")
                if (isinstance(item, ast.FunctionDef)
                        and not (name.startswith("__") and name.endswith("__"))
                        and not any(hasattr(base, name) for base in bases)
                        and uses[name] == _attrs(item).count(name)):
                    out.append(f"{module}.{node.name}.{name}")
    return out


def test_every_method_has_a_user():
    sources = list(PACKAGE.glob("*.py")) + list(Path(__file__).parent.glob("*.py"))
    uses = Counter(name for p in sources
                   for name in _attrs(ast.parse(p.read_text(encoding="utf-8"))))
    uses.update(part for _, name in _traced() for part in name.split("."))
    classes = {p.stem: (ast.parse(p.read_text(encoding="utf-8")),
                        vars(importlib.import_module(f"assoform.{p.stem}")))
               for p in MODULES}
    assert _orphan_methods(classes, uses) == []


def test_an_orphan_method_is_caught():
    tree = ast.parse("import argparse\n"
                     "class P(argparse.ArgumentParser):\n"
                     "    def error(self, message):\n        pass\n"
                     "    def __len__(self):\n        return 0\n"
                     "    def used(self):\n        pass\n"
                     "    def loop(self):\n        return self.loop()\n")
    namespace: dict = {}
    exec(compile(tree, "a", "exec"), namespace)
    uses = Counter(_attrs(tree) + _attrs(ast.parse("a.P().used()")))
    assert _orphan_methods({"a": (tree, namespace)}, uses) == ["a.P.loop"]


def _functions_naming(trees: dict[str, ast.Module], name: str) -> list[str]:
    """Functions (at any depth) whose body names name."""
    return sorted(f"{module}.{node.name}" for module, tree in trees.items()
                  for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and name in _names(node))


def _package_trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}


def test_one_mod_p_elimination():
    # _PRIME starts the one prime sequence; the echelon and its lift take p from it
    assert _functions_naming(_package_trees(), "_PRIME") == ["linalg._primes"]


def test_a_second_mod_p_elimination_is_caught():
    tree = ast.parse("_PRIME = 7\n"
                     "def _primes():\n    yield _PRIME\n"
                     "def echelon_mod_p(rows, target, p):\n    return rows\n"
                     "def rank(m):\n    return [x % _PRIME for x in m]\n")
    assert _functions_naming({"linalg": tree}, "_PRIME") == ["linalg._primes", "linalg.rank"]


def _rank_deciders(trees: dict[str, ast.Module]) -> tuple[list[str], ...]:
    """The callers of the echelon, its lift, the primes, the kernel and the Koszul matrices."""
    return tuple(_functions_naming(trees, name) for name in
                 ("echelon_mod_p", "lifted_kernel", "_primes", "canonical_kernel",
                  "koszul_matrices"))


def test_one_rank_decision():
    deciders = ["linalg.canonical_kernel", "linalg.certified_rank"]
    assert _rank_deciders(_package_trees()) == (
        deciders, deciders, deciders,
        ["ideals.socle_kernel", "linalg.kernel_basis", "linalg.null_space",
         "linalg.reduce_rows", "stability._min_norm_point"], [])


def test_a_hand_rolled_fallback_is_caught():
    # reduce_rows runs the echelon and its lift itself, and trusts the first prime
    linalg_tree = ast.parse("def certified_rank(rows, ncols, bound):\n"
                            "    for p in _primes():\n"
                            "        echelon = echelon_mod_p(rows, bound, p)\n"
                            "        if lifted_kernel(rows, ncols, echelon, p) is not None:\n"
                            "            return len(echelon[1])\n"
                            "def null_space(rows, ncols):\n"
                            "    return canonical_kernel(rows, ncols, ncols)\n"
                            "def reduce_rows(rows, ncols):\n"
                            "    echelon = echelon_mod_p(rows, ncols, _PRIME)\n"
                            "    return lifted_kernel(rows, ncols, echelon, _PRIME)\n")
    # dim_piece and the Koszul check go through certified_rank; a fourth
    # rank loops over the primes itself, a fifth builds the Fraction matrices, and
    # omega trusts a lift of its own
    ideals_tree = ast.parse("def dim_piece(self, k):\n"
                            "    return certified_rank(self.rows(k), self.ncols(k), self.bound)\n"
                            "def koszul_check(gs, k):\n"
                            "    return certified_rank(images(gs, k), ncols(k), bound) == bound\n"
                            "def hilbert_rank(rows, ncols, bound):\n"
                            "    for p in _primes():\n"
                            "        if len(echelon_mod_p(rows, bound, p)[1]) == bound:\n"
                            "            return bound\n"
                            "def koszul_rank(gs, j, k):\n"
                            "    return len(rref(koszul_matrices(gs, j, k))[1])\n"
                            "def socle_kernel(self):\n"
                            "    return lifted_kernel(self.rows, self.ncols, self.echelon, p)\n")
    # Wolfe reads the certified kernel of its bordered system
    stability_tree = ast.parse("def _min_norm_point(points):\n"
                               "    return canonical_kernel(bordered, m + 2, m + 2)\n")
    assert _rank_deciders({"linalg": linalg_tree, "ideals": ideals_tree,
                           "stability": stability_tree}) == (
        ["ideals.hilbert_rank", "linalg.certified_rank", "linalg.reduce_rows"],
        ["ideals.socle_kernel", "linalg.certified_rank", "linalg.reduce_rows"],
        ["ideals.hilbert_rank", "linalg.certified_rank"],
        ["linalg.null_space", "stability._min_norm_point"],
        ["ideals.koszul_rank"])


def _membership_readers(trees: dict[str, ast.Module]) -> tuple[list[str], list[str]]:
    """The users of the catalecticants, and the readers of an ideal's RREF pieces."""
    pieces = ("piece_with_pivots", "graded_piece", "min_nonideal_monomial")
    return (_functions_naming(trees, "catalecticants"),
            sorted({f for name in pieces for f in _functions_naming(trees, name)}))


def test_one_membership_rule():
    # perp and the roundtrip rank the catalecticants through apolar_hilbert,
    # and perp_piece takes a kernel; contains and graded_piece are GradedIdeal's,
    # and recognize_decomposable reduces the generators' own rows of I_d
    assert _membership_readers(_package_trees()) == (
        ["inverse_system.apolar_hilbert", "inverse_system.perp_piece"],
        ["ideals.contains", "ideals.graded_piece", "ideals.min_nonideal_monomial"])


def test_a_second_membership_route_is_caught():
    # perp ranks its own catalecticants, the roundtrip compares RREFs, the
    # audit reads its monomial off the RREF of I_nu, and decomposability
    # intersects the RREF of I_d
    cli_tree = ast.parse("def _perp(f, args, out):\n"
                         "    return [certified_rank(c, n, n) for c in catalecticants(f, top)]\n")
    inverse_tree = ast.parse("def apolar_hilbert(f, top):\n"
                             "    return [certified_rank(c, n, n) for c in catalecticants(f, top)]\n"
                             "def macaulay_roundtrip(gs):\n"
                             "    return all(null_space(c, n) == ideal.graded_piece(k)\n"
                             "               for k, c in enumerate(catalecticants(form, top)))\n")
    stability_tree = ast.parse("def semistability_audit(gs, trials, seed):\n"
                               "    return min_nonideal_monomial(ideal, ideal.nu)\n"
                               "def recognize_decomposable(ideal, b):\n"
                               "    return intersect_with_coordinates(ideal.graded_piece(d), keep)\n")
    assert _membership_readers({"cli": cli_tree, "inverse_system": inverse_tree,
                                "stability": stability_tree}) == (
        ["cli._perp", "inverse_system.apolar_hilbert", "inverse_system.macaulay_roundtrip"],
        ["inverse_system.macaulay_roundtrip", "stability.recognize_decomposable",
         "stability.semistability_audit"])


def test_one_omega_solve():
    # decomposability reads I_d alone; the kernel of I_nu is the associated form's
    assert _functions_naming(_package_trees(), "socle_kernel") == [
        "inverse_system.associated_form"]


def test_a_second_omega_solve_is_caught():
    stability_tree = ast.parse("def recognize_decomposable(ideal, b):\n"
                               "    omega = ideal.socle_kernel()[0]\n"
                               "    return not any(x and sum(m[b:]) >= 3 for m, x in zip(monos, omega))\n")
    inverse_tree = ast.parse("def associated_form(gs):\n"
                             "    return ideal.socle_kernel()\n")
    assert _functions_naming({"stability": stability_tree, "inverse_system": inverse_tree},
                             "socle_kernel") == ["inverse_system.associated_form",
                                                 "stability.recognize_decomposable"]


def test_one_wolfe_caller():
    # binary_stability reads its witness off the heavy root's multiplicity
    assert _functions_naming(_package_trees(), "torus_destabilizer") == ["cli._stability"]


def test_a_binary_wolfe_call_is_caught():
    stability_tree = ast.parse("def binary_stability(f):\n"
                               "    return torus_destabilizer(f) or RootWitness(m, heavy)\n")
    cli_tree = ast.parse("def _stability(system, args, out):\n"
                         "    return torus_destabilizer(form)\n")
    assert _functions_naming({"stability": stability_tree, "cli": cli_tree},
                             "torus_destabilizer") == ["cli._stability",
                                                       "stability.binary_stability"]


def test_one_rational_to_integer_scaling():
    # the lcm of the denominators scales a rational vector to integers;
    # parsing._size takes it only to estimate a coefficient size in bits
    assert _functions_naming(_package_trees(), "lcm") == ["linalg.integer_vector",
                                                          "parsing._size"]


def test_a_second_scaling_is_caught():
    linalg_tree = ast.parse("import math\n"
                            "def integer_vector(values):\n"
                            "    return math.lcm(*(x.denominator for x in values))\n")
    stability_tree = ast.parse("from math import lcm\n"
                               "def torus_destabilizer(f):\n"
                               "    scale = lcm(*(v.denominator for v in f))\n"
                               "    return [int(v * scale) for v in f]\n")
    assert _functions_naming({"linalg": linalg_tree, "stability": stability_tree},
                             "lcm") == ["linalg.integer_vector",
                                        "stability.torus_destabilizer"]


def test_one_conversion_to_integer_rows():
    # integer_rows is the one conversion of QMatrix rows; poly.integer_terms
    # scales a polynomial's terms, and Wolfe's major cycle its corral weights
    assert _functions_naming(_package_trees(), "integer_vector") == [
        "linalg.integer_rows", "poly.integer_terms", "stability._min_norm_point"]


def test_a_second_conversion_is_caught():
    linalg_tree = ast.parse("def integer_rows(rows):\n"
                            "    return [integer_vector(row)[1] for row in rows]\n"
                            "def rank(m):\n"
                            "    return certified_rank(integer_rows(m.entries), m.cols)\n"
                            "def _integer_row(row):\n"
                            "    return integer_vector(row)[1]\n")
    assert _functions_naming({"linalg": linalg_tree}, "integer_vector") == [
        "linalg._integer_row", "linalg.integer_rows"]


def test_one_door_from_qmatrix():
    # only the public QMatrix functions convert their rows; inside, every
    # elimination takes integer rows
    assert _functions_naming(_package_trees(), "integer_rows") == [
        "linalg.in_row_space", "linalg.kernel_basis", "linalg.rank", "linalg.row_space_basis",
        "linalg.rref", "linalg.solve_square"]


def test_a_second_door_from_qmatrix_is_caught():
    linalg_tree = ast.parse("def rank(m):\n"
                            "    return certified_rank(integer_rows(m.entries), m.cols)\n")
    ideals_tree = ast.parse("def intersect_with_coordinates(basis, keep_cols):\n"
                            "    return reduce_rows(integer_rows(basis.entries), basis.cols)\n")
    assert _functions_naming({"linalg": linalg_tree, "ideals": ideals_tree},
                             "integer_rows") == ["ideals.intersect_with_coordinates",
                                                 "linalg.rank"]


def test_one_koszul_basis_enumeration():
    # each basis of a Koszul module is enumerated and indexed in one place and
    # cached there; the package's other caches are monomials_of_degree and the
    # Macaulay order, a pure function of four small ints read off those bases
    trees = _package_trees()
    assert _functions_naming(trees, "combinations") == ["ideals._koszul_basis"]
    assert _functions_naming(trees, "lru_cache") == ["ideals._koszul_basis",
                                                     "ideals._macaulay_order",
                                                     "poly.monomials_of_degree"]


def test_a_second_enumeration_is_caught():
    tree = ast.parse("import itertools\nfrom functools import lru_cache\n"
                     "@lru_cache(maxsize=None)\n"
                     "def _koszul_basis(n, m, j, e):\n"
                     "    return tuple(itertools.combinations(range(m), j))\n"
                     "@lru_cache(maxsize=32)\n"
                     "def _product_order(n, d, m, k):\n"
                     "    return _macaulay_order(n, d, m, 1, k)\n"
                     "def _macaulay_order(n, d, m, j, k):\n"
                     "    return [w for w in itertools.combinations(range(m), j - 1)]\n")
    assert _functions_naming({"ideals": tree}, "combinations") == ["ideals._koszul_basis",
                                                                   "ideals._macaulay_order"]
    assert _functions_naming({"ideals": tree}, "lru_cache") == ["ideals._koszul_basis",
                                                                "ideals._product_order"]
