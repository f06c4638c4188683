"""The library pipeline against the relational oracle on generated projects."""

import random
import re
import xml.etree.ElementTree as ET

import pytest

from medquery.descriptors import parse_project
from medquery.errors import UnsupportedSqlError
from medquery.extraction import materialize_required
from medquery.mediator import execute_query
from medquery.sql_frontend import parse_sql

from generators import random_project, random_sql_text
from oracles import relational_eval, result_counter

SEEDS_PER_BLOCK = 20
QUERIES_PER_PROJECT = 5


def _unreferenced_from_tables(text):
    """FROM tables of a generated query that no ``T.F`` in it names."""
    from_list = re.search(r" FROM (.*?)(?: ON | WHERE |$)", text).group(1)
    return [t for t in from_list.split(", ") if not re.search(rf"\b{t}\.", text)]


def _rewritten(path):
    """Half the rows of a generated data file, the rest in reverse order."""
    if path.suffix == ".xml":
        root = ET.fromstring(path.read_bytes())
        for record in list(root)[::2]:
            root.remove(record)
        return ET.tostring(root)
    header, *rows = path.read_bytes().splitlines(keepends=True)
    return b"".join([header, *rows[::-2]])


@pytest.mark.parametrize("first_seed", range(0, 200, SEEDS_PER_BLOCK))
def test_execute_query_agrees_with_relational_eval(tmp_path, first_seed):
    # each query runs on the original data files, then on rewritten ones, all
    # through one project; the oracle reads each version through a fresh one
    checked = rejected = changed = 0
    for seed in range(first_seed, first_seed + SEEDS_PER_BLOCK):
        rng = random.Random(seed)
        generated = random_project(rng, tmp_path / str(seed))
        project = generated.project
        data_files = [p for p in generated.sources_path.parent.iterdir()
                      if p not in (generated.sources_path, generated.schema_path)]
        versions = [{p: p.read_bytes() for p in data_files},
                    {p: _rewritten(p) for p in data_files}]
        for _ in range(QUERIES_PER_PROJECT):
            text = random_sql_text(rng, project)
            unreferenced = _unreferenced_from_tables(text)
            if unreferenced:
                with pytest.raises(UnsupportedSqlError, match=unreferenced[0]):
                    execute_query(project, text)
                rejected += 1
                continue
            query = parse_sql(text, project.schema)
            answers = []
            for version in versions:
                for path, content in version.items():
                    path.write_bytes(content)
                fresh = parse_project(generated.sources_path, generated.schema_path)
                expected = relational_eval(query, materialize_required(fresh, query.from_tables).tables)
                answers.append(result_counter(execute_query(project, text)))
                assert answers[-1] == expected, (seed, text)
            checked += 1
            changed += answers[0] != answers[1]
    assert checked > rejected
    assert changed > 0  # the rewrites reach the answers
