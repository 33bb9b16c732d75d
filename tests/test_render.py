"""The template encoders against the encoders they replaced.

`render.encode` writes a `Rows` value from one % template per row and
hands plain tuples straight to csv; `tests/oracles.py` keeps json.dumps of
the whole envelope and the per-cell CSV and Markdown loops.  Both must
print the same bytes on generated tables and on the CLI's own envelopes.
"""

import tracemalloc

import hypothesis
import hypothesis.strategies as st
import pytest

from vrhq import cli, render
from vrhq.render import Rows

from tests.oracles import reference_csv, reference_json, reference_md
from tests.test_cli import DETERMINISM_ARGV, GOLDEN_TABLES

BIG = st.integers(min_value=-2**70, max_value=2**70)
TEXT = st.one_of(st.text(max_size=6),
                 st.text(alphabet='"\',%|\\é€\n ds', max_size=6))
CELLS = {
    "int": BIG,
    "small_int": st.integers(min_value=-3, max_value=3),
    "none": st.none(),
    "none_int": st.one_of(st.none(), BIG),
    "none_bool": st.one_of(st.none(), st.booleans()),
    "bool": st.booleans(),
    "true": st.just(True),
    "false": st.just(False),
    "str": TEXT,
    "mixed": st.one_of(BIG, st.booleans(), st.none(), TEXT,
                       st.lists(st.one_of(BIG, st.booleans()), max_size=3)),
}
KEY = st.one_of(TEXT, st.sampled_from(["%", "%d", "%s", "%(n)s", "100%", "n"]))


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=6))
    keys = draw(st.lists(KEY, min_size=len(kinds), max_size=len(kinds), unique=True))
    count = draw(st.sampled_from([0, 1, 2, 5]))
    return Rows(tuple(keys),
                [tuple(draw(CELLS[kind]) for kind in kinds) for _ in range(count)])


def envelope(result, status="ok"):
    return render.make_envelope("table", {"n_max": 3, "label": "a%b\n"}, result,
                                "0.1.0", "2026-01-01T00:00:00.000000+00:00", 0.25,
                                status)


OTHER_VALUES = st.one_of(st.none(), st.booleans(), BIG, TEXT,
                         st.lists(st.one_of(BIG, TEXT), max_size=2),
                         st.dictionaries(TEXT, st.one_of(BIG, st.none()), max_size=2))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(tables(), st.dictionaries(TEXT, OTHER_VALUES, max_size=3),
                  st.integers(min_value=0, max_value=3))
def test_json_matches_json_dumps(rows, others, at):
    # the Rows stands among other values of the result, as in `table`
    items = [(k, v) for k, v in others.items() if k != "rows"]
    items.insert(min(at, len(items)), ("rows", rows))
    env = envelope(dict(items))
    assert render.encode(env, "json") == reference_json(env)


def test_json_rejects_rows_outside_the_result_values():
    rows = Rows(("n",), [(1,)])
    for env in (envelope({"nested": {"rows": rows}}), envelope({"rows": [rows]}),
                envelope(rows)):
        with pytest.raises(TypeError):
            render.encode(env, "json")


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(tables())
def test_tables_match_the_per_cell_loops(rows):
    env = envelope({"paper": False, "rows": rows})
    assert render.encode(env, "csv") == reference_csv(*rows)
    assert render.encode(env, "md") == reference_md(*rows)


CLI_RUNS = ([(argv, fmt) for argv, fmt, _ in GOLDEN_TABLES]
            + [(argv, "json") for argv in DETERMINISM_ARGV])


@pytest.mark.parametrize("argv, fmt", CLI_RUNS,
                         ids=[" ".join(argv + [fmt]) for argv, fmt in CLI_RUNS])
def test_cli_envelopes_match_the_reference(monkeypatch, capsys, tmp_path, argv, fmt):
    seen = []

    def keep(env, form):
        seen.append(env)
        return render.encode(env, form)

    monkeypatch.setattr(cli, "encode", keep)
    out = str(tmp_path / "k.cx")
    assert cli.main([a.replace("{out}", out) for a in argv]) == 0
    capsys.readouterr()
    (env,) = seen
    assert render.encode(env, "json") == reference_json(env)
    if fmt != "json":
        headers, rows = render._PROJECTIONS[env["command"]](env["result"])
        reference = reference_csv if fmt == "csv" else reference_md
        assert render.encode(env, fmt) == reference(headers, rows)


def test_a_failure_prints_json_in_every_format():
    env = envelope(None, {"code": "value_error", "message": "n_max 100% too \"big\""})
    for fmt in render.FORMATS:
        assert render.encode(env, fmt) == reference_json(env)


def test_table_json_memory():
    # dict rows and json.dumps(indent=2) of the whole envelope peaked at
    # 91 MiB on this table, for 10.7 MiB of output
    args = cli.build_parser().parse_args(["table", "--n-max", "400"])
    tracemalloc.start()
    try:
        result = cli._HANDLERS["table"](args)
        env = render.make_envelope("table", cli._params_of(args), result, "0.1.0",
                                   "2026-01-01T00:00:00.000000+00:00", 0.0)
        text = render.encode(env, "json")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) > 10 * 2**20
    assert peak < 48 * 2**20
