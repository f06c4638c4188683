"""The library pipeline against the relational oracle on generated projects."""

import random
import re

import pytest

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


@pytest.mark.parametrize("first_seed", range(0, 200, SEEDS_PER_BLOCK))
def test_execute_query_agrees_with_relational_eval(tmp_path, first_seed):
    checked = rejected = 0
    for seed in range(first_seed, first_seed + SEEDS_PER_BLOCK):
        rng = random.Random(seed)
        project = random_project(rng, tmp_path / str(seed)).project
        for _ in range(QUERIES_PER_PROJECT):
            text = random_sql_text(rng, project)
            unreferenced = _unreferenced_from_tables(text)
            if unreferenced:
                with pytest.raises(UnsupportedSqlError, match=unreferenced[0]):
                    execute_query(project, text)
                rejected += 1
                continue
            query = parse_sql(text, project.schema)
            tables = materialize_required(project, query.from_tables).tables
            expected = relational_eval(query, tables)
            assert result_counter(execute_query(project, text)) == expected, (seed, text)
            checked += 1
    assert checked > rejected
