import re
from pathlib import Path

import peiffer

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_module_table_names_exactly_the_package_modules():
    table = re.findall(r"^\| `peiffer\.(\w+)` \|", README.read_text(), re.MULTILINE)
    package = {p.stem for p in Path(peiffer.__file__).parent.glob("*.py")} - {"__init__"}
    assert sorted(table) == sorted(package)
