import ast
import builtins
import importlib.util
import re
from pathlib import Path

import anisogauge
from anisogauge import cli

SOURCE = Path(anisogauge.__file__).parent
# The syntax tree of each package file, by file name, parsed once.
TREES = {path.name: ast.parse(path.read_text(), filename=str(path))
         for path in sorted(SOURCE.glob("*.py"))}


def _nodes():
    """(file name, node) for each node of each package file."""
    for file, tree in TREES.items():
        for node in ast.walk(tree):
            yield file, node


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so invariants must raise explicitly.
    found = [
        f"{file}:{node.lineno}"
        for file, node in _nodes()
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# One class per exit code that `cli.main` tells apart: the base class and
# BadParameter exit 64, BoundExceeded 3 and ExistenceViolated 2.
ERROR_CLASSES = ["AnisogaugeError", "BadParameter", "BoundExceeded", "ExistenceViolated"]
BUILTIN_EXCEPTIONS = {name for name, value in vars(builtins).items()
                      if isinstance(value, type) and issubclass(value, BaseException)}


def test_one_error_class_per_exit_code():
    # a class that no caller tells apart from BadParameter is a BadParameter
    defined = [node.name for node in TREES["errors.py"].body if isinstance(node, ast.ClassDef)]
    assert sorted(defined) == ERROR_CLASSES
    assert sorted(anisogauge._EXPORTS["errors"]) == ERROR_CLASSES
    raised = [
        f"{file}:{node.lineno} {node.exc.func.id}"
        for file, node in _nodes()
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
        and isinstance(node.exc.func, ast.Name)
        and node.exc.func.id not in BUILTIN_EXCEPTIONS.union(ERROR_CLASSES)
    ]
    assert raised == []


def test_traced_names_exist_where_the_tracer_patches_them():
    # perfbench/tracer.py patches the functions in spans.WRAPPED by name:
    # `ffield` ones on `anisogauge.cli`, which imported them, the rest on
    # their own module.  A rename would break only the traced benchmark.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{name}"
        for module, names in spans.WRAPPED.items()
        for name in names
        if not callable(getattr(
            importlib.import_module("anisogauge.cli" if module == "ffield" else f"anisogauge.{module}"),
            name, None,
        ))
    ]
    assert spans.WRAPPED and missing == []


# The verify rows that `cli` must not build; "census" is left out because
# it is also the name of a command.
VERIFY_ROW_NAMES = {
    "norm-one-subgroup", "anisotropic-orthogonal", "hyperbolic-orthogonal", "metric-group",
    "fusion-axioms", "fp-dims", "semidirect-cross-check", "quartic-identity",
    "criterion-suite", "hyperbolic-controls",
}


def _spelled(node) -> list:
    """The names a node spells: an identifier, an attribute, the names of
    an import, or a string constant."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.Constant):
        return [node.value]
    return [getattr(node, "id", None) or getattr(node, "attr", None)]


def test_cli_builds_no_verify_row():
    # the rows come from `suite.verify_rows`; `cli` parses, gates and formats
    banned = VERIFY_ROW_NAMES | {"quadspace", "orthogroup", "hyperbolic_control"}
    found = [
        f"cli.py:{node.lineno} {name}"
        for node in ast.walk(TREES["cli.py"])
        for name in _spelled(node)
        if isinstance(name, str) and name in banned
    ]
    assert found == []


def test_one_cap_for_complete_verification():
    # gauging.COMPLETE_BOUND is the one cap on p*q^2; every reader looks it
    # up there, so no other module spells its value
    found = [
        f"{file}:{node.lineno}"
        for file, node in _nodes()
        if isinstance(node, ast.Constant) and type(node.value) is int and node.value == 2000
    ]
    assert len(found) == 1 and found[0].startswith("gauging.py:")


def _is_ring_byte_budget(node) -> bool:
    """Whether node spells 2 ** 30, as the power or as its value."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return [getattr(side, "value", None) for side in (node.left, node.right)] == [2, 30]
    return isinstance(node, ast.Constant) and type(node.value) is int and node.value == 2 ** 30


def test_one_home_for_the_ring_byte_budget():
    # gauging.RING_BYTE_BUDGET is spelled once, in the numpy-free module, so
    # verify refuses an oversized ring before numpy loads; and `cli` reaches
    # into `fusionring` for no private helper, a gate included
    found = [
        f"{file}:{node.lineno}"
        for file, node in _nodes()
        if _is_ring_byte_budget(node)
    ]
    assert len(found) == 1 and found[0].startswith("gauging.py:")
    private = [
        f"cli.py:{node.lineno} {node.attr}"
        for node in ast.walk(TREES["cli.py"])
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "fusionring"
        and node.attr.startswith("_")
    ]
    assert private == []


FLOATING = {"float", "float16", "float32", "float64", "linalg", "rint", "sqrt", "floor", "ceil"}


def test_no_floating_point_in_package():
    # Every result is exact integer arithmetic (README); no name or attribute
    # that reaches floating point may appear in the package.
    found = [
        f"{file}:{node.lineno} {name}"
        for file, node in _nodes()
        for name in [getattr(node, "id", None) or getattr(node, "attr", None)]  # Name, Attribute
        if name in FLOATING
    ]
    assert found == []


def test_no_line_in_package_longer_than_100_characters():
    found = [
        f"{path.name}:{number}"
        for path in sorted(SOURCE.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > 100
    ]
    assert found == []


def test_one_construction_path_for_fusion_rings():
    # `_pack` normalises entries for `ring_from_text` alone, and FusionRing
    # is built only through __init__: no classmethod, staticmethod, __new__
    # or call of __new__ makes a second constructor
    tree = TREES["fusionring.py"]
    ring = next(node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "FusionRing")
    others = [
        node.name for node in ring.body if isinstance(node, ast.FunctionDef)
        and (node.name == "__new__" or any(
            getattr(d, "id", None) in ("classmethod", "staticmethod") for d in node.decorator_list))
    ]
    others += [f"line {node.lineno}" for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr == "__new__"]
    assert _callers("_pack") == ["fusionring.py:ring_from_text"]
    assert others == []


def _callers(name: str) -> list[str]:
    """file:function for each call of `name` in the package, by name or
    attribute, under its innermost enclosing function or <module>."""
    return [where for where, call in _src_calls()
            if name in (getattr(call.func, "id", None), getattr(call.func, "attr", None))]


def test_one_place_picks_the_order_p_element():
    # `gauging.certify_pair` turns (p, q) into the field and c, and checks
    # the order of c; every other stage reads its record
    assert _callers("pick_order_p") == ["gauging.py:certify_pair"]


def test_one_place_builds_the_field():
    # `gauging.certify_pair` is the one gate of a pair and builds its field;
    # every verify stage reads the record, so none re-tests or rebuilds it
    assert _callers("make_field") == ["gauging.py:certify_pair"]
    defined = [
        f"{file}:{node.lineno}"
        for file, node in _nodes()
        if isinstance(node, ast.FunctionDef) and node.name == "_require_pair"
    ]
    assert defined == []


def test_one_place_builds_the_hyperbolic_plane():
    # `suite.verify_rows` builds each plane once: the hyperbolic one for its
    # orthogonal row and every control, the anisotropic one for its rows and
    # the criterion suite; `gtcheck` takes the planes
    assert _callers("build_hyperbolic") == ["suite.py:verify_rows"]
    assert _callers("build_anisotropic") == ["suite.py:verify_rows"]


def test_one_place_factors_a_group_order():
    # `ffield._generator` certifies a cyclic group by the cofactor test: the
    # norm-one group once, in `norm_one_generator`, for `pick_order_p` and
    # the anisotropic rotation, and the hyperbolic plane's rotations in
    # `enumerate_orth`
    assert _callers("_prime_factors") == ["ffield.py:_generator"]
    assert _callers("_generator") == [
        "ffield.py:norm_one_generator", "orthogroup.py:enumerate_orth"]


def test_no_stage_lists_the_norm_one_group():
    # every stage reads the certified generator: no function calls
    # `ker_norm`, and the one reference to it, past its definition, is the
    # by-name import in `cli` that the traced benchmark patches
    references = [
        f"{file}:{node.lineno}"
        for file, node in _nodes()
        if isinstance(node, (ast.Name, ast.Attribute, ast.ImportFrom))
        and "ker_norm" in _spelled(node)
    ]
    imports = [node.lineno for node in TREES["cli.py"].body
               if isinstance(node, ast.ImportFrom) and node.module == "ffield"]
    assert _callers("ker_norm") == []
    assert references == [f"cli.py:{line}" for line in imports]


def test_one_place_takes_a_square_root():
    # the criterion's one square root is of its discriminant, a base-field
    # element, so `sqrt_ext` takes an int
    assert _callers("sqrt_ext") == ["gtcheck.py:eigenvalues_2x2"]


def test_one_place_builds_a_split_map():
    # `orthogroup.split_embedding` builds every block map of the package, so
    # the verify rows read only embeddings that its block identities checked
    assert _callers("SplitOrthMap") == ["orthogroup.py:split_embedding"]


def test_no_dataclasses_in_package():
    # every record is a namedtuple: `dataclasses` would load inspect and copy
    found = [
        f"{file}:{node.lineno}"
        for file, node in _nodes()
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
        or isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
    ]
    assert found == []


def _names_hashlib(node) -> bool:
    """An import of hashlib, a use of the name, or the string "hashlib"
    (as importlib.import_module would take it)."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "hashlib" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[0] == "hashlib"
    return getattr(node, "id", None) == "hashlib" or getattr(node, "value", None) == "hashlib"


def test_hashlib_only_as_the_last_resort_digest():
    # hashlib imports _hashlib, which maps OpenSSL's libcrypto: the payload
    # digest comes from the built-in _sha2 or _sha256, and from hashlib only
    # on a build that has neither
    found = [
        f"{file}:{node.lineno}"
        for file, node in _nodes()
        if _names_hashlib(node)
    ]
    tree = TREES["cli.py"]
    node, chain = next(node for node in tree.body if isinstance(node, ast.Try)), []
    while isinstance(node, ast.Try):
        (handler,) = node.handlers
        assert getattr(handler.type, "id", None) == "ImportError"
        chain.append(node.body[0].module)
        node = handler.body[0]
    chain.append(node.module)
    assert chain == ["_sha2", "_sha256", "hashlib"]
    assert found == [f"cli.py:{node.lineno}"]


def _exit_codes_sentence(text: str) -> str:
    """The sentence that starts with "Exit codes:", up to its full stop."""
    return re.search(r"Exit codes:(.*?)\.(\s|$)", text, re.DOTALL).group(1)


def test_every_exit_code_is_documented():
    # each exit code is listed in the cli docstring and in README's
    # "Exit codes" sentence
    codes = sorted(value for name, value in vars(cli).items() if name.startswith("EXIT_"))
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    docstring, listed = _exit_codes_sentence(cli.__doc__), _exit_codes_sentence(readme)
    assert [code for code in codes if not re.search(rf"\b{code}\b", docstring)] == []
    assert [code for code in codes if f"`{code}`" not in listed] == []


def test_one_os_exit_after_both_flushes():
    # `cli.run` ends the process with `os._exit`, which skips the flush at
    # interpreter exit: it is the only one, and stdout and stderr are
    # flushed before it
    found = [
        f"{file}:{node.lineno}"
        for file, node in _nodes()
        if not isinstance(node, ast.Constant) and "_exit" in _spelled(node)
    ]
    tree = TREES["cli.py"]
    run = next(node for node in tree.body if getattr(node, "name", None) == "run")
    calls = {ast.unparse(node.func): node.lineno for node in ast.walk(run)
             if isinstance(node, ast.Call)}
    assert ast.unparse(run.body[-1]) == "os._exit(code)"
    assert found == [f"cli.py:{calls['os._exit']}"]
    assert calls["sys.stdout.flush"] < calls["sys.stderr.flush"] < calls["os._exit"]


def _calls_in_functions(tree):
    """(name of the innermost enclosing function, or <module>, call) for
    each call."""
    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else name
            if isinstance(child, ast.Call):
                yield inner, child
            yield from visit(child, inner)
    return visit(tree, "<module>")


def _src_calls():
    """("file:function", call) for each call in `src/`."""
    for file, tree in TREES.items():
        for function, call in _calls_in_functions(tree):
            yield f"{file}:{function}", call


def _calls_touching(stream: str) -> list[str]:
    """Each call in `src/` that passes `stream` or calls a method of it."""
    return [
        f"{where} {ast.unparse(call)}" for where, call in _src_calls()
        if stream in map(ast.unparse, [getattr(call.func, "value", call.func), *call.args,
                                       *(keyword.value for keyword in call.keywords)])
    ]


def test_stderr_has_one_writer():
    # `cli._note` drops its line where stderr is closed, so that no state of
    # stderr changes an exit code: it is the only call that passes
    # `sys.stderr` or calls a method of it, but for `run`'s final flush
    assert _calls_touching("sys.stderr") == ["cli.py:_note print(line, file=sys.stderr)",
                                             "cli.py:run sys.stderr.flush()"]


def test_stdout_has_one_writer():
    # `cli._say` refuses to write where descriptor 1 was closed at start-up,
    # so that no payload is dropped unseen: it is the only call that passes
    # `sys.stdout` or calls a method of it, but for `run`'s guarded flush,
    # and the only `print` is `_note`'s, to stderr
    assert _calls_touching("sys.stdout") == ["cli.py:_say sys.stdout.write(text)",
                                             "cli.py:run sys.stdout.flush()"]
    assert [where for where, call in _src_calls() if ast.unparse(call.func) == "print"] == [
        "cli.py:_note"]
