"""The README's examples run as written and print what their comments say."""

import contextlib
import io
import pathlib
import re
import shlex

import pytest

from prodiso import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(), re.S)


def test_python_examples_print_their_comments():
    # each print's comment starts with what it prints; the blocks share one
    # namespace, as in one interpreter
    blocks = _blocks("python")
    assert blocks
    namespace: dict = {}
    for code in blocks:
        expected = [line.split("#", 1)[1].split()[0]
                    for line in code.splitlines()
                    if line.startswith("print(") and "#" in line]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(code, str(README), "exec"), namespace)
        assert out.getvalue().split() == expected


@pytest.mark.parametrize("line", [
    ln for block in _blocks("sh") for ln in block.splitlines()
    if ln.startswith("prodiso ")])
def test_cli_examples_run(line, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(shlex.split(line)[1:]) in (0, 2)


@pytest.mark.parametrize("desc", ["logistic", "gaussian", "exponential",
                                  '{"kind": "gaussian", "sigma": 2.0}',
                                  '{"kind": "power", "p": 4}'])
def test_documented_measures_parse(desc):
    assert cli.main(["spectral-gap", "--measure", desc]) == 0
