"""The per-point references reach pwreject through public names only, so
they share no private statistic helper with the code they check."""

import ast
import os

_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.py")


def _private(dotted):
    return any(part.startswith("_") for part in dotted.split("."))


def private_pwreject_names(source):
    """Every private pwreject name that ``source`` imports or reads off an imported name."""
    tree = ast.parse(source)
    found, bound = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "pwreject":
            dotted = ["%s.%s" % (node.module, alias.name) for alias in node.names]
            found += [name for name in dotted if _private(name)]
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "pwreject":
                    found += [alias.name] if _private(alias.name) else []
                    bound.add(alias.asname or "pwreject")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found.append(ast.unparse(node))
    return found


def test_references_import_no_private_pwreject_name():
    with open(_PATH) as fh:
        assert private_pwreject_names(fh.read()) == []


def test_the_check_sees_a_private_import():
    assert private_pwreject_names(
        "from pwreject.models.nuisance import XYData, _f_from_rss\n"
        "from pwreject.models import nuisance as nu\n"
        "import pwreject.testing\n"
        "f = nu._f_p_value\n"
        "g = pwreject.testing._f_test_p_value\n"
    ) == ["pwreject.models.nuisance._f_from_rss", "nu._f_p_value", "pwreject.testing._f_test_p_value"]
