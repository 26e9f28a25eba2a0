"""The README's Python API block runs and prints what its comments say."""
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_api_block_prints_its_commented_outputs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(),
                      re.S).group(1)
    # "print(x)  # 0.5378..." promises a printed line that reads 0.5378
    # followed by more digits; the promised lines come out in order
    promised = [line.split("#", 1)[1].strip() for line in block.splitlines()
                if line.startswith("print(") and "#" in line]
    assert len(promised) == 3
    exec(compile(block, str(README), "exec"), {})
    printed = iter(capsys.readouterr().out.splitlines())
    for promise in promised:
        pattern = re.compile(re.escape(promise).replace(r"\.\.\.", r"\d*"))
        assert any(pattern.fullmatch(line) for line in printed), promise
