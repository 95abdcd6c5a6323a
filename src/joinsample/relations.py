"""Relation storage and trie indexes.

A Relation is a bag of tuples over named attributes, with values interned to
integer ids so hot loops compare ints only. A TrieIndex nests the tuples of
one relation along a fixed attribute order and keeps subtree counts, which
makes semijoin degrees, row sampling, and projection views cheap (one binary
search per level). Every probe walks the bound prefix once, in `_walk`, and
needs the bound attributes to be a prefix of the order. Which index a probe
reads is one rule, `queries.bound_first_index` (bound attributes first),
and the Database keeps its answers, so a probe finds its index once per
database and a trial step does only the walk.

A Database owns the interner, the loaded relations, the deduplicated
projections derived from them, one sorted row list per (source, column
positions), where a source is a loaded relation's name or a projection's
(source, positions), the fractional edge covers solved over it (`covers`,
see `queries.database_cover`) and two index caches. `bound_first` holds the
bound-first index of each (relation, edge attributes, bound attributes,
next attribute), which `queries.bound_first_index` reads and fills. Behind
it is one trie per (source, column permutation); `Database.index` makes a
relabelling of that trie, with the caller's attribute names, on each call
that names its columns otherwise, so edges over one relation that read the
same column order share one root. The Database also meters query-model
operations: every degree / sample_row / view call bumps a counter, which
benchmark reports read as the cost measure T. Index builds are treated as
preprocessing and are not metered.

Set-up does its per-row work in builtins, not in a Python loop per row or
value. A file's data lines are split in one `split` and read by one
`map(int, ...)` (falling back to a token-by-token read when some value is
not an int), and the rows are cut from the values by `zip`; only a file
whose lines differ in field count is read line by line. A load checks arity
with `set`/`map`, transposes the rows into columns, interns their values in
one batch and encodes them a column at a time with `map(<id lookup>,
column)`, zipping the id columns back into rows. Projections and trie
reorders read columns with `operator.itemgetter` before one `sorted`. Only
`_build_levels` walks the sorted rows in Python: its inner loop compares
every row's value at every depth, so a build reads each row once per level
of the trie. Its nodes hold their counts and children in tuples, so that
the garbage collector stops tracking those of ints and None.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter, methodcaller, sub


class SchemaError(ValueError):
    pass


class UnsupportedOrderError(LookupError):
    """The binding is not a prefix of this index's attribute order."""


class EmptySemijoinError(LookupError):
    pass


class Interner:
    """Bijection between raw values and dense integer ids.

    Ids are handed out in sorted batches per load call (ints before strings,
    each group ascending), so a database loaded from one relation keeps the
    natural value order. Later loads may interleave arbitrarily; nothing
    downstream depends on id order matching value order.
    """

    def __init__(self):
        self._ids: dict = {}
        self._values: list = []

    def intern(self, value) -> int:
        vid = self._ids.get(value)
        if vid is None:
            vid = len(self._values)
            self._ids[value] = vid
            self._values.append(value)
        return vid

    def intern_batch(self, values) -> None:
        fresh = set(values).difference(self._ids)
        for v in sorted(fresh, key=lambda x: (x.__class__.__name__, x)):
            self.intern(v)

    def intern_rows(self, rows) -> list:
        """Each row, all of one arity, as a tuple of ids, its values
        interned in one batch and looked up a column at a time."""
        columns = list(zip(*rows))
        if not columns:  # no rows, or rows of arity 0
            return [()] * len(rows)
        self.intern_batch(chain.from_iterable(columns))
        vid = self._ids.__getitem__
        return list(zip(*[map(vid, column) for column in columns]))

    def decode(self, vid: int):
        return self._values[vid]

    def __len__(self):
        return len(self._values)


@dataclass
class Relation:
    """Bag of interned tuples over a fixed schema."""

    name: str
    schema: tuple
    tuples: list  # list of tuples of interned ids, duplicates kept
    interner: Interner

    def __len__(self):
        return len(self.tuples)

    @property
    def arity(self):
        return len(self.schema)


def load_relation(name, schema, rows, interner=None) -> Relation:
    """Intern and store rows as a bag. Raises SchemaError on arity mismatch."""
    schema = tuple(schema)
    if len(set(schema)) != len(schema):
        raise SchemaError(f"{name}: duplicate attribute in schema {schema}")
    interner = interner if interner is not None else Interner()
    if set(map(len, rows)) - {len(schema)}:
        row = next(r for r in rows if len(r) != len(schema))
        raise SchemaError(
            f"{name}: row {row!r} has arity {len(row)}, schema has {len(schema)}"
        )
    return Relation(name, schema, interner.intern_rows(rows), interner)


class _Node:
    """One trie level under a prefix. Counts and children are tuples, which
    the garbage collector stops tracking once they hold only ints or None;
    keys stay a list, as lists compare equal (see estimators._degree_column)
    far faster than tuples do."""

    __slots__ = ("keys", "cum", "children")

    def __init__(self, keys, cum, children):
        self.keys = keys
        self.cum = cum  # cum[i] = tuples under keys[:i]; cum[-1] = node total
        self.children = children  # aligned with keys; None at the last level


def _build_levels(sorted_tuples, lo, hi, depth, arity):
    last = depth + 1 == arity
    keys, cum, children = [], [0], []
    rows = 0
    i = lo
    while i < hi:
        key = sorted_tuples[i][depth]
        j = i + 1
        while j < hi and sorted_tuples[j][depth] == key:
            j += 1
        keys.append(key)
        rows += j - i
        cum.append(rows)
        if not last:
            children.append(_build_levels(sorted_tuples, i, j, depth + 1, arity))
        i = j
    return _Node(keys, tuple(cum), (None,) * len(keys) if last else tuple(children))


def _sorted_rows(rows, positions, arity, distinct=False) -> list:
    """Each row's values at `positions` as a tuple, sorted, and deduplicated
    when `distinct`. Every column in order reads the rows themselves; one
    position sorts the bare values (the order of their 1-tuples) and wraps
    them after; no position gives () per row."""
    if positions == tuple(range(arity)):
        cols = rows
    elif len(positions) == 1:
        cols = map(itemgetter(*positions), rows)
        return list(zip(sorted(set(cols) if distinct else cols)))
    elif positions:
        cols = map(itemgetter(*positions), rows)
    else:
        cols = repeat((), len(rows))
    return sorted(set(cols) if distinct else cols)


def _column_perm(attrs, order, arity) -> tuple:
    """Position of each attribute of `order` among the column names `attrs`;
    an index needs at least one column."""
    if len(attrs) != arity or sorted(order) != sorted(attrs):
        raise SchemaError(f"order {order} is not a permutation of columns {attrs}")
    if not order:
        raise SchemaError("an index needs at least one column")
    return tuple(attrs.index(a) for a in order)


class TrieIndex:
    """Immutable prefix index over one relation for one attribute order,
    its columns named positionally by attrs (default: the schema)."""

    def __init__(self, relation: Relation, order, counter=None, attrs=None):
        attrs = relation.schema if attrs is None else tuple(attrs)
        order = tuple(order)
        perm = _column_perm(attrs, order, relation.arity)
        self.relation = relation
        self.order = order
        self._counter = counter
        reordered = _sorted_rows(relation.tuples, perm, relation.arity)
        self.root = _build_levels(reordered, 0, len(reordered), 0, len(order)) \
            if reordered else _Node([], (0,), ())

    def relabel(self, relation: Relation, order) -> TrieIndex:
        """This trie with its levels named `order`, over `relation`: the root
        and op counter are shared, nothing is read, sorted or built."""
        idx = object.__new__(TrieIndex)
        # __init__'s attributes in __init__'s order, so that the instance
        # layout, and with it fast attribute reads, is that of a built trie
        idx.relation, idx.order, idx._counter, idx.root = \
            relation, tuple(order), self._counter, self.root
        return idx

    def _charge(self, k=1):
        if self._counter is not None:
            self._counter.n += k

    def _prefix_attrs(self, s):
        bound = [a for a in self.order if a in s]
        if tuple(bound) != self.order[: len(bound)]:
            raise UnsupportedOrderError(
                f"binding {sorted(set(s) & set(self.order))} is not a prefix of order {self.order}"
            )
        return bound

    def _walk(self, values):
        """(node, rows) under the prefix `values`, read along the order: the
        one descent every probe makes. (None, 0) when the prefix is absent;
        the node is None and rows the multiplicity when every column is bound."""
        node = self.root
        count = node.cum[-1]
        for v in values:
            keys = node.keys
            i = bisect.bisect_left(keys, v)
            if i == len(keys) or keys[i] != v:
                return None, 0
            count = node.cum[i + 1] - node.cum[i]
            node = node.children[i]
        return node, count

    def degree(self, s) -> int:
        """|R ⋉ s| counted with multiplicity; 0 when the prefix is absent."""
        self._charge()
        return self._walk([s[a] for a in self._prefix_attrs(s)])[1]

    def sample_row(self, s, rng: random.Random):
        """Uniform row of R ⋉ s (multiplicity-weighted); tuple in index order."""
        return self._descend([s[a] for a in self._prefix_attrs(s)], rng)[0]

    def _descend(self, out, rng: random.Random, depth=None):
        """sample_row once its binding is checked: (a uniform row under the
        bound prefix values `out`, a list it extends in place; a count). The
        one row descent; callers that resolved the prefix themselves call it
        directly.

        The count is |R ⋉ out| when depth is None. Given a depth at least
        len(out), it is the rows under the drawn row's first `depth` values,
        which the descent passes on its way down, so it stands for a degree
        probe of that prefix and charges the probe's op too: two in all.

        Each level draws with rng._randbelow(n), resolved once per descent:
        it is what rng.randrange(n) calls for n > 0 on Python 3.10 to 3.13,
        and every node under a present prefix holds n > 0 rows."""
        self._charge()
        node, count = self._walk(out)
        if count == 0:
            raise EmptySemijoinError(
                f"empty semijoin under {dict(zip(self.order, out))}")
        below = rng._randbelow
        if depth is not None:
            self._charge()
            for _ in range(depth - len(out)):
                cum = node.cum
                i = bisect.bisect_right(cum, below(cum[-1])) - 1
                out.append(node.keys[i])
                count = cum[i + 1] - cum[i]
                node = node.children[i]
        while node is not None:
            cum = node.cum
            i = bisect.bisect_right(cum, below(cum[-1])) - 1
            out.append(node.keys[i])
            node = node.children[i]
        return tuple(out), count

    def project(self, attrs, s):
        """View of π_attrs(R ⋉ s); attrs must directly follow the bound prefix."""
        self._charge()
        attrs = tuple(attrs)
        bound = self._prefix_attrs(s)
        want = self.order[len(bound): len(bound) + len(attrs)]
        if tuple(sorted(attrs)) != tuple(sorted(want)):
            raise UnsupportedOrderError(
                f"projection {attrs} does not follow prefix {bound} in order {self.order}"
            )
        node, _ = self._walk([s[a] for a in bound])
        return View(self, node, want)


class View:
    """Handle over π_I(R ⋉ s) for one index node, ranging over distinct
    I-values. Iteration, sampling and `items` read single-attribute views;
    `size` of a wider one walks the subtrie (fine at the scales this
    package targets).
    """

    def __init__(self, index, node, attrs):
        self.index = index
        self.node = node
        self.attrs = attrs

    def size(self) -> int:
        if self.node is None:
            return 0
        if len(self.attrs) == 1:
            return len(self.node.keys)
        return sum(1 for _ in self._walk(self.node, len(self.attrs)))

    def _walk(self, node, depth, prefix=()):
        for i, key in enumerate(node.keys):
            cur = prefix + (key,)
            if depth == 1:
                yield cur, node.cum[i + 1] - node.cum[i]
            else:
                yield from self._walk(node.children[i], depth - 1, cur)

    def __iter__(self):
        if len(self.attrs) != 1:
            raise ValueError(f"iter() needs a single-attribute view, got {self.attrs}")
        if self.node is not None:
            yield from ((k,) for k in self.node.keys)

    def sample(self, rng: random.Random):
        if len(self.attrs) != 1:
            raise ValueError(f"sample() needs a single-attribute view, got {self.attrs}")
        self.index._charge()
        if self.node is None or not self.node.keys:
            raise EmptySemijoinError("sample() on an empty view")
        return (self.node.keys[rng.randrange(len(self.node.keys))],)

    def rows(self) -> int:
        """|R ⋉ s|: the rows under this view's node, with multiplicity."""
        return 0 if self.node is None else self.node.cum[-1]

    def items(self):
        """(value, supporting-row count) of a single-attribute view, in key
        order; one pass over the node, no lookups."""
        if len(self.attrs) != 1:
            raise ValueError(f"items() needs a single-attribute view, got {self.attrs}")
        node = self.node
        if node is None:
            return iter(())
        cum = node.cum
        return zip(node.keys, map(sub, cum[1:], cum))

    def count_of(self, value_combo) -> int:
        """Supporting-row count of one I-value (0 when absent)."""
        node = self.node
        for v in value_combo:
            if node is None:
                return 0
            i = bisect.bisect_left(node.keys, v)
            if i == len(node.keys) or node.keys[i] != v:
                return 0
            count = node.cum[i + 1] - node.cum[i]
            node = node.children[i]
        return count


class OpCounter:
    __slots__ = ("n",)

    def __init__(self):
        self.n = 0

    def add(self, k=1):
        self.n += k


class Database:
    """Shared interner + relations + lazy index cache + operation meter.

    `relations` holds only what was loaded, by name; derived projections
    live under tuple keys, which never equal a loaded name."""

    def __init__(self):
        self.interner = Interner()
        self.relations: dict[str, Relation] = {}
        self._derived: dict[tuple, Relation] = {}  # projection key -> Relation
        self._rows: dict[tuple, list] = {}   # (source, positions) -> sorted rows
        self._tries: dict[tuple, TrieIndex] = {}  # (source, permutation) -> build
        self.bound_first: dict = {}  # see queries.bound_first_index
        self.covers: dict = {}  # see queries.database_cover
        self.ops = OpCounter()

    def load(self, name, schema, rows) -> Relation:
        """Load rows as relation `name`; SchemaError if the name is taken."""
        if name in self.relations:
            raise SchemaError(f"relation {name!r} is already loaded")
        rel = load_relation(name, schema, rows, self.interner)
        self.relations[name] = rel
        return rel

    def relation(self, name) -> Relation:
        """A loaded relation by name, or a derived one by its key."""
        return self._derived[name] if isinstance(name, tuple) else self.relations[name]

    def _source(self, name):
        """What a relation's rows are built from: a loaded relation's name,
        or for a projection key (the projected relation's source, the
        column positions kept)."""
        if not isinstance(name, tuple):
            return name
        base, attrs, inter = name
        return self._source(base), tuple(attrs.index(a) for a in inter)

    def projection(self, name, attrs, keep) -> tuple:
        """Key of the deduplicated projection of relation `name`, columns
        named `attrs`, onto those in `keep` (sorted); first use charges len(rel).
        Keys that keep the same column positions share one row list."""
        inter = tuple(sorted(set(attrs) & set(keep)))
        key = (name, tuple(attrs), inter)
        if key not in self._derived:
            rel = self.relation(name)
            src = self._source(key)
            rows = self._rows.get(src)
            if rows is None:
                rows = self._rows[src] = _sorted_rows(rel.tuples, src[1], rel.arity,
                                                      distinct=True)
            self._derived[key] = Relation(key, inter, rows, rel.interner)
            self.ops.add(len(rel))
        return key

    def index(self, name, order, attrs=None) -> TrieIndex:
        """Index of a relation (name or derived key) along `order`, columns
        named `attrs` (default: the schema). The trie is built once per
        (source rows, column permutation) and returned as built to a request
        for its own relation and order; any other request gets a fresh
        relabelling of it, so callers that look an index up often keep it
        (as `bound_first` does)."""
        rel = self.relation(name)
        attrs = rel.schema if attrs is None else tuple(attrs)
        order = tuple(order)
        key = (self._source(name), _column_perm(attrs, order, rel.arity))
        trie = self._tries.get(key)
        if trie is None:
            trie = self._tries[key] = TrieIndex(rel, order, self.ops, attrs)
        if trie.relation is rel and trie.order == order:
            return trie
        return trie.relabel(rel, order)

    def decode_tuple(self, ids):
        return tuple(self.interner.decode(v) for v in ids)


def _parse_value(token: str):
    token = token.strip()
    try:
        return int(token)
    except ValueError:
        return token


def _parse_values(tokens) -> list:
    """The tokens' values: all ints read in one pass when they parse (int()
    strips whitespace itself), else token by token."""
    try:
        return list(map(int, tokens))
    except ValueError:
        return list(map(_parse_value, tokens))


def parse_relation_file(text: str):
    """`name:A,B` header, then comma-separated value lines; blanks ignored.

    When every line has as many fields, all of them are split and read at
    once and the rows cut from the values; a ragged file is read line by
    line, so that loading it names its first row of the wrong arity."""
    lines = list(filter(str.strip, text.splitlines()))
    if not lines:
        raise SchemaError("empty relation file")
    head = lines[0]
    if ":" not in head:
        raise SchemaError(f"missing `name:attrs` header, got {head!r}")
    name, _, attrs = head.partition(":")
    attrs = tuple(a.strip() for a in attrs.split(","))
    if not all(attrs):
        raise SchemaError(f"bad attribute list in header {head!r}")
    data = lines[1:]
    commas = set(map(methodcaller("count", ","), data))
    if len(commas) == 1:
        values = iter(_parse_values(",".join(data).split(",")))
        rows = list(zip(*[values] * (commas.pop() + 1)))
    else:  # ragged, or no rows
        rows = [tuple(_parse_values(line.split(","))) for line in data]
    return name.strip(), attrs, rows


def load_relation_file(db: Database, path) -> Relation:
    with open(path, encoding="utf-8") as fh:
        name, schema, rows = parse_relation_file(fh.read())
    return db.load(name, schema, rows)
