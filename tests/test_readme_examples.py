"""The README's CLI examples name commands and options that exist."""

import re
from pathlib import Path

from casimirlab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def example_lines():
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    return [line.split() for block in blocks for line in block.splitlines()
            if line.startswith("casimirlab ")]


def test_readme_examples_use_existing_commands_and_options():
    examples = example_lines()
    assert {words[1] for words in examples} == set(main.commands)
    for words in examples:
        command = main.commands[words[1]]
        opts = {opt for param in command.params for opt in param.opts}
        used = {word.partition("=")[0] for word in words[2:] if word.startswith("--")}
        assert used <= opts, f"{' '.join(words)}: no option {sorted(used - opts)}"
