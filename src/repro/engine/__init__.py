"""In-process relational engine (the paper's database substrate).

MCDB/SimSQL (Section 2.1) and Indemics (Section 2.4) assume a relational
engine underneath; this subpackage provides one: schemas and tables, an
expression language, logical plans with a rule/cost-based optimizer, an
iterator executor with row-flow metrics, and a compact SQL dialect.
"""

from repro.engine.catalog import Database
from repro.engine.csvio import table_from_csv, table_to_csv
from repro.engine.expressions import (
    BinaryOp,
    Column,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Literal,
    UnaryOp,
    col,
    combine_and,
    conjuncts,
    lit,
)
from repro.engine.columnar import ColumnBatch, ColumnVector
from repro.engine.operators import (
    EXECUTIONS,
    ColumnarExecutor,
    ExecutionMetrics,
    Executor,
    choose_execution,
    provider_from,
)
from repro.engine.partition import PartitionedTable
from repro.engine.plan import AggregateSpec, plan_summary
from repro.engine.query import Query, agg, avg, count, max_, min_, sum_
from repro.engine.schema import Column as SchemaColumn
from repro.engine.schema import Schema
from repro.engine.sqlparser import parse_select
from repro.engine.statistics import TableStatistics
from repro.engine.table import Table

__all__ = [
    "AggregateSpec",
    "BinaryOp",
    "Column",
    "ColumnBatch",
    "ColumnVector",
    "ColumnarExecutor",
    "Database",
    "EXECUTIONS",
    "ExecutionMetrics",
    "Executor",
    "PartitionedTable",
    "choose_execution",
    "Expression",
    "FunctionCall",
    "InList",
    "IsNull",
    "Literal",
    "Query",
    "Schema",
    "SchemaColumn",
    "Table",
    "TableStatistics",
    "UnaryOp",
    "agg",
    "avg",
    "col",
    "combine_and",
    "conjuncts",
    "count",
    "lit",
    "max_",
    "min_",
    "parse_select",
    "plan_summary",
    "provider_from",
    "sum_",
    "table_from_csv",
    "table_to_csv",
]
