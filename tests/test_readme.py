import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def python_blocks():
    with open(README, encoding="utf-8") as fh:
        return re.findall(r"^```python\n(.*?)^```$", fh.read(), flags=re.M | re.S)


def test_readme_library_example_runs():
    # a renamed or deleted public name breaks the documented example here
    blocks = python_blocks()
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert len(namespace["center"]) == 0 and len(namespace["derived"]) == 3
    assert namespace["rep"].wilcoxon_p is not None
