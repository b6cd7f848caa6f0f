"""MDV's declarative query language.

The paper keeps the query language brief ("quite similar to the rule
language", Section 2.2); here it is the rule grammar without the
``register`` clause.  Two evaluation paths exist:

- :func:`~repro.query.evaluator.evaluate_query` — in-memory evaluation
  over resources, used by Local Metadata Repositories on their cache
  (and by the tests as the oracle);
- :meth:`~repro.mdv.provider.MetadataProvider.browse` — browsing a
  Metadata Provider directly: the query is initialized like a new rule
  over the stored metadata, through the filter's SQL joins (§3.4).
"""

from repro.query.evaluator import compare_values, evaluate_normalized, evaluate_query

__all__ = [
    "compare_values",
    "evaluate_normalized",
    "evaluate_query",
]
