import importlib.util
import os

_TOOL = os.path.abspath(os.path.join(os.path.dirname(__file__), "..",
                                     "tools", "compare_outputs.py"))


def _compare_outputs():
    spec = importlib.util.spec_from_file_location("compare_outputs", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_outputs_names_the_graphs_behind_each_moved_label(capsys):
    # twelve witness lines and one record move: each label lists its
    # graphs sorted, ten at most, then how many more
    names = [f"g{i:02d}" for i in range(12)][::-1]
    before = "".join(f"{g} witness aa\n" for g in names) + \
        "tree suite/rank PASS aa\ntree det aa\n"
    after = "".join(f"{g} witness bb\n" for g in names) + \
        "tree suite/rank FAIL bb\ntree det aa\n"
    assert not _compare_outputs().report("REF", before, after)
    assert capsys.readouterr().out.splitlines() == [
        "14 lines at REF, 14 here; 13 moved",
        "  suite/rank: 1",
        "    tree",
        "  witness: 12",
        "    " + " ".join(sorted(names)[:10]) + " … 2 more",
        "1 status changes",
        "  tree suite/rank: PASS -> FAIL",
    ]
