"""Flag and config values go through one conversion: `cli._value`, with
the kind of the parameter's dataclass default. So ``cli.py`` passes no
``type=`` to argparse, which would convert a flag a second time and
refuse it with its own usage error."""
import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "skytraj" / "cli.py"


def typed_calls(source: str) -> list[int]:
    """The line of each call in ``source`` that passes a ``type`` keyword."""
    return [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and any(k.arg == "type" for k in node.keywords)
    ]


def test_cli_passes_no_type_to_argparse():
    assert typed_calls(CLI.read_text(encoding="utf-8")) == []


def test_the_check_finds_each_typed_call():
    source = "p.add_argument('--n', type=int)\nf(x, type=float, help='h')\ng(type)\n"
    assert typed_calls(source) == [1, 2]
