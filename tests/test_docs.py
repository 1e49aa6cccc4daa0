import doctest
from pathlib import Path

from charcore import cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
FORMATS = ROOT / "docs" / "formats.md"


def test_readme_examples_run():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def _verify_table():
    """lemma -> (option names, library function) from the table under `verify`."""
    section = FORMATS.read_text().split("## `charcore verify <lemma>`")[1]
    section = section.split("\n## ")[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    table = {}
    for row in rows:
        lemma, options, function = (c.strip().strip("`") for c in row.split("|")[1:4])
        names = {o.strip().strip("`").removeprefix("--") for o in options.split(",")}
        table[lemma] = (names, function)
    return table


def test_verify_options_table_matches_the_cli():
    table = _verify_table()
    assert list(table) == list(cli._VERIFIERS)
    for lemma, (options, call) in cli._VERIFIERS.items():
        names, function = table[lemma]
        assert names == set(options), lemma
        assert function in call.__code__.co_names, lemma
