import ast
import importlib.util
import re
from pathlib import Path

import anisogauge
from anisogauge import cli

SOURCE = Path(anisogauge.__file__).parent


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so invariants must raise explicitly.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


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
        for node in ast.walk(ast.parse((SOURCE / "cli.py").read_text()))
        for name in _spelled(node)
        if isinstance(name, str) and name in banned
    ]
    assert found == []


def test_one_cap_for_complete_verification():
    # gauging.COMPLETE_BOUND is the one cap on p*q^2; every reader looks it
    # up there, so no other module spells its value
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Constant) and type(node.value) is int and node.value == 2000
    ]
    assert len(found) == 1 and found[0].startswith("gauging.py:")


FLOATING = {"float", "float16", "float32", "float64", "linalg", "rint", "sqrt", "floor", "ceil"}


def test_no_floating_point_in_package():
    # Every result is exact integer arithmetic (README); no name or attribute
    # that reaches floating point may appear in the package.
    found = [
        f"{path.name}:{node.lineno} {name}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
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
    calls, others = [], []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for function in ast.walk(tree):
            if isinstance(function, ast.FunctionDef):
                calls += [
                    f"{path.name}:{function.name}"
                    for node in ast.walk(function)
                    if isinstance(node, ast.Call)
                    and "_pack" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
                ]
        if path.name == "fusionring.py":
            ring = next(node for node in tree.body
                        if isinstance(node, ast.ClassDef) and node.name == "FusionRing")
            others += [
                node.name for node in ring.body if isinstance(node, ast.FunctionDef)
                and (node.name == "__new__" or any(
                    getattr(d, "id", None) in ("classmethod", "staticmethod")
                    for d in node.decorator_list))
            ]
            others += [f"line {node.lineno}" for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute) and node.attr == "__new__"]
    assert calls == ["fusionring.py:ring_from_text"]
    assert others == []


def _callers(name: str) -> list[str]:
    """file:function for each call of `name` in the package, by name or attribute."""
    return [
        f"{path.name}:{function.name}"
        for path in sorted(SOURCE.glob("*.py"))
        for function in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_one_place_picks_the_order_p_element():
    # `gauging.certify_pair` turns (p, q) into the field and c, and checks
    # the order of c; every other stage reads its record
    assert _callers("pick_order_p") == ["gauging.py:certify_pair"]


def test_one_place_builds_the_field():
    # `gauging.certify_pair` is the one gate of a pair and builds its field;
    # every verify stage reads the record, so none re-tests or rebuilds it
    assert _callers("make_field") == ["gauging.py:certify_pair"]
    defined = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
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
    # `orthogroup._generator` certifies the cyclic part of each plane's
    # group by the cofactor test; `ker_norm` checks only its size
    assert _callers("_prime_factors") == ["orthogroup.py:_generator"]


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
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
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
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _names_hashlib(node)
    ]
    tree = ast.parse((SOURCE / "cli.py").read_text())
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
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if not isinstance(node, ast.Constant) and "_exit" in _spelled(node)
    ]
    tree = ast.parse((SOURCE / "cli.py").read_text())
    run = next(node for node in tree.body if getattr(node, "name", None) == "run")
    calls = {ast.unparse(node.func): node.lineno for node in ast.walk(run)
             if isinstance(node, ast.Call)}
    assert ast.unparse(run.body[-1]) == "os._exit(code)"
    assert found == [f"cli.py:{calls['os._exit']}"]
    assert calls["sys.stdout.flush"] < calls["sys.stderr.flush"] < calls["os._exit"]
