"""The public surface: what ``qre`` exports, and no entry point that nothing uses.

Every public module-level function and class of a ``qre`` submodule must be
referenced by the package itself (the command line included) or by a script
under ``scripts/``.  The package namespace does not count as a reference, so a
name that only tests use fails here unless ``TEST_ONLY`` lists it with a reason.
Every public method of a public class must likewise be read as a ``.name``
attribute somewhere in the package or the scripts, or be listed with a reason
in ``TEST_ONLY_METHODS``.  A private module-level function or class has no such
list: it is read in the package or the scripts, or it is gone.
"""

import ast
import io
import tokenize
from pathlib import Path

import qre

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qre"

# CPython's parser holds a module's tokens in an array that doubles past this
# many, so compiling a larger module from source peaks about 0.6 MB higher.
PARSER_TOKEN_LIMIT = 8192

EXPORTS = [
    # errors
    "DivergentEntropy", "InvalidMatrix", "InvalidParameter", "InvalidRank",
    "IrregularFunction", "NotPSD", "QREError", "ShapeMismatch", "SingularArgument",
    # operator convex functions
    "OperatorConvexFunction", "from_id", "loewner_quadrature", "make_f_p",
    "make_neg_log", "make_neg_power",
    # operators, states and their JSON files
    "DensityMatrix", "FactorizedSpace", "PsdOperator", "load_matrix",
    "random_contraction", "random_density", "random_unitary", "save_matrix",
    # entropies
    "ModularOperator", "apply_f_modulars", "classical_reduction",
    "quasi_relative_entropy", "umegaki", "von_neumann_entropy", "wyd_skew_information",
    # recovery map and residuals
    "equality_condition_residuals", "monotonicity_residuals", "petz_recover",
    "ssa_residuals_P", "ssa_residuals_Q",
    # constants, gaps and checks
    "BoundConstants", "BoundReport", "alpha_exponent", "classical_reduction_block",
    "constants_for", "equality_suite", "lieb_ruskai_block", "monotonicity_gap",
    "pinsker_block", "power_family_constants", "ssa_gap", "verify_cauchy_schwarz_block",
    "verify_joint_convexity_block", "verify_monotonicity_block",
    "verify_monotonicity_bound_block", "verify_operator_ssa_block", "verify_ssa_block",
    "verify_thm42_block", "verify_wyd_joint_concavity_block", "verify_wyd_operator_block",
    "wyd_skew_block",
    # campaigns
    "FAMILIES", "CampaignConfig", "run_campaign", "run_single",
]

# public names that only tests use, each a quantity of the paper or its I/O
TEST_ONLY = {
    "alpha_exponent": "the closed-form exponent alpha(beta, c) the acceptance tests read",
    "umegaki": "the Umegaki relative entropy, the logarithm's S_f",
    "save_matrix": "writes the JSON matrix files that qre verify loads",
    "monotonicity_gap": "the monotonicity gap of one pair, which acceptance criterion 3 "
                        "loops over (the block: _monotonicity_gaps)",
}


# public methods that only tests use, each a definition of the paper the tests compare against
TEST_ONLY_METHODS = {
    "ModularOperator.apply": "the modular operator's action sigma X rho^{-1}, which f(Delta) "
                             "is checked against",
    "OperatorConvexFunction.mu_density": "the Loewner measure density that the window "
                                         "constants are derived from",
}


def _definitions(private=False):
    """(module stem, name) of every public (or every private) module-level function and class."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") == private):
                yield path.stem, node.name


def _referenced_names():
    """(module stem, name) of every reference to a module-level name, in the package and scripts.

    A reference is ``from .mod import name`` (``from qre.mod import name`` in a
    script), ``mod.name`` with ``mod`` a submodule, or a read of ``name`` in
    its own module.  A method, attribute or local of another module that shares
    the name is no reference.
    """
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    refs = set()
    for path in paths:
        if path.name == "__init__.py":
            continue
        own = path.stem if path.parent == PACKAGE else None
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module:
                stem = node.module.rpartition(".")[2]
                refs.update((stem, alias.name) for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                refs.add((node.value.id, node.attr))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and own:
                refs.add((own, node.id))
    return refs


def _public_methods():
    """"Class.method" of every public method of a public module-level class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                yield from (f"{node.name}.{item.name}" for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_"))


def _attribute_names():
    """Every ``.name`` attribute in the package and the scripts."""
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    return {node.attr for path in paths for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}


def test_exports_are_pinned():
    assert qre.__all__ == EXPORTS
    assert all(hasattr(qre, name) for name in qre.__all__)


def test_every_public_definition_has_a_caller():
    referenced = _referenced_names()
    unused = [f"qre.{module}.{name}" for module, name in _definitions()
              if (module, name) not in referenced and name not in TEST_ONLY]
    assert unused == [], "public entry points nothing in src/ or scripts/ uses"


def test_test_only_list_stays_small():
    # ROADMAP item 5: TEST_ONLY stays at 4 names or fewer
    assert len(TEST_ONLY) <= 4


def test_test_only_list_is_current():
    # a listed name that is gone, or has gained a caller, leaves the list
    referenced = _referenced_names()
    uncalled = {name for module, name in _definitions()
                if (module, name) not in referenced}
    assert sorted(set(TEST_ONLY) - uncalled) == []


def test_every_private_definition_has_a_reader():
    # tests do not count: a helper only a test reads is dead code
    referenced = _referenced_names()
    unread = [f"qre.{module}.{name}" for module, name in _definitions(private=True)
              if (module, name) not in referenced]
    assert unread == [], "private definitions nothing in src/ or scripts/ reads"


def test_every_public_method_has_a_caller():
    attributes = _attribute_names()
    unused = [method for method in _public_methods()
              if method.rpartition(".")[2] not in attributes and method not in TEST_ONLY_METHODS]
    assert unused == [], "public methods nothing in src/ or scripts/ reads"


def test_test_only_methods_are_current():
    attributes = _attribute_names()
    uncalled = {method for method in _public_methods()
                if method.rpartition(".")[2] not in attributes}
    assert sorted(set(TEST_ONLY_METHODS) - uncalled) == []


def _parser_tokens(source: str) -> int:
    """Tokens the parser reads: every token but comments and non-logical newlines."""
    return sum(1 for tok in tokenize.generate_tokens(io.StringIO(source).readline)
               if tok.type not in (tokenize.COMMENT, tokenize.NL))


def test_every_module_stays_below_the_parser_token_limit():
    counts = {path.name: _parser_tokens(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    over = {name: n for name, n in counts.items() if n >= PARSER_TOKEN_LIMIT}
    assert over == {}, f"modules at or past {PARSER_TOKEN_LIMIT} parser tokens"


def test_generalized_powers_is_read_only_in_linalg():
    # a list of operators is raised with PsdOperator.powers: one spelling outside linalg
    readers = sorted({path.name for path in sorted(PACKAGE.glob("*.py")) + sorted(
                          (ROOT / "scripts").glob("*.py")) if path.name != "linalg.py"
                      for node in ast.walk(ast.parse(path.read_text()))
                      if (isinstance(node, ast.Name) and node.id == "generalized_powers")
                      or (isinstance(node, ast.Attribute) and node.attr == "generalized_powers")
                      or (isinstance(node, ast.alias) and node.name == "generalized_powers")})
    assert readers == []


def _callers(tree, name) -> list[str]:
    """The innermost function around each call of ``name`` in ``tree``, ``<module>`` outside."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                   getattr(node.func, "attr", None)):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_bound_constants_are_built_only_from_the_one_record():
    # constants_for builds the record every report carries; optimize_T_scalar and _remainder
    # derive theirs from it, and no check rebuilds one from loose constants
    allowed = {"bounds.constants_for", "bounds.optimize_T_scalar", "bounds._remainder"}
    builders = sorted({f"{path.stem}.{where}" for path in sorted(PACKAGE.glob("*.py")) + sorted(
                           (ROOT / "scripts").glob("*.py"))
                       for where in _callers(ast.parse(path.read_text()), "BoundConstants")})
    assert [b for b in builders if b not in allowed] == []


def test_every_imported_name_is_read():
    # the package namespace re-exports what it imports, through __all__; perfbench's
    # test_install_leaves_no_wrapper_behind reads bounds.quasi_relative_entropy
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        if path.name == "__init__.py":
            read |= set(qre.__all__)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unread += [f"{path.stem}.{name}" for name in names if name not in read]
    assert unread == ["bounds.quasi_relative_entropy"]


def _stack_writes(tree) -> list[str]:
    """The innermost function around each write into a decomposed stack in ``tree``.

    A decomposed stack is read as ``stack`` or ``x._stack``; a write assigns to
    (or deletes) a subscript of one, at any depth (``stack["eigs"][i] = ...``),
    or calls one of its dict methods that mutate.
    """
    def is_stack(node):
        while isinstance(node, ast.Subscript):
            node = node.value
        return ((isinstance(node, ast.Name) and node.id == "stack")
                or (isinstance(node, ast.Attribute) and node.attr == "_stack"))

    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        targets = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        if any(isinstance(t, ast.Subscript) and is_stack(t) for tgt in targets
               for t in ast.walk(tgt)):
            found.append(where)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("update", "setdefault", "pop", "popitem", "clear")
                and is_stack(node.func.value)):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_no_code_writes_into_a_decomposed_stack():
    # linalg._stack_of builds a stack's dict; afterwards its arrays are only read, so a
    # member's rows are the rows it was decomposed with, whoever gathered them before
    writers = sorted({f"{path.stem}.{where}" for path in sorted(PACKAGE.glob("*.py"))
                      for where in _stack_writes(ast.parse(path.read_text()))})
    assert [w for w in writers if w != "linalg._stack_of"] == []
