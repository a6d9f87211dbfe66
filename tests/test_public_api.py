"""The README's "Public API" list and ``essm_search.__all__`` agree."""

import re
from pathlib import Path

import essm_search

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_lists_exactly_the_exported_names():
    section = README.read_text().split("\n## Public API\n")[1].split("\n## ")[0]
    listed = re.findall(r"`(\w+)`", section)
    assert len(listed) == len(set(listed))
    assert len(essm_search.__all__) == len(set(essm_search.__all__))
    assert set(listed) == set(essm_search.__all__)
    for name in listed:
        assert hasattr(essm_search, name)
