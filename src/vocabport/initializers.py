"""Target-embedding initialization methods.

Five ways to fill a target-vocabulary embedding matrix from a source model:

  random      every row ~ Normal(mean, std) of the source matrix elements
  clp         copy overlapping rows; others = cosine-weighted average of
              overlap rows, similarities from an auxiliary model
  heuristics  copy overlapping rows; others sampled from the per-(script,
              position) statistics of the source rows
  focus       copy overlapping rows; others = sparsemax-weighted sum of
              overlap rows, similarities from static word vectors
  clp-plus    focus pipeline with auxiliary-model similarities

Untied source models get their output matrix built with the same per-token
weights and decisions as the input matrix; recomputing similarities in
output space would double the cost and let the two matrices drift apart.

Determinism contract: every token draws from its own RNG stream,
numpy's `default_rng(SeedSequence([seed, t]))` for target id t, so a row's
value depends only on the inputs, the seed and its target id, never on the
order rows are filled in. The streams are seeded one draw block at a time:
`_stream_states` runs numpy's SeedSequence hash in uint32 arithmetic over
the block's ids at once, and `_token_rng` hands each token's state to
PCG64, so every stream keeps SeedSequence's bits. A sampled
row is float32(mean + std * z), two float64 roundings, the same bits as
numpy's `normal(mean, std)`: z is one `standard_normal` call per token,
as wide as all target matrices together (the input matrix's columns come
first), and rows are filled in blocks of `_DRAW_BYTES` whose size cannot
change a byte, since no step mixes rows. Similarity
rows are filled in blocks of query rows, then combined one row at a time
over their nonzero weights. Each run builds one `kernels.SupportCosines`
over the support rows, whose cosines are exact slice products, so no BLAS
rounding. clp takes one cosine product per block against the whole
support and applies its clamp rule row-wise. focus and clp-plus take
their weights from its `sparsemax`: a float32 screen of the block against
the support picks each row's candidates, only those are rescored exactly,
and a certificate proves that no other entry can get a nonzero weight;
the rows of a block without one share one whole-support product, exact
whichever rows share it. Every weight keeps the bits of sparsemax over
the whole-support exact cosines. The method picks the path. The block
size comes from a fixed byte budget, `_BLOCK_BYTES`, and no step mixes
rows, so output bytes do not depend on the block size, on `--threads` or
on the number of BLAS threads, though the screen's candidates may.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .aux_vectors import AUX_MODEL, WORD_VECTORS, AuxEmbeddings
from .embedding_store import (
    EmbeddingMatrix, ModelBundle, Vocabulary, _gather, _row_blocks, validate_bundle,
)
from .errors import ValidationError, VocabportError
from .kernels import SupportCosines, WeightVector, convex_combine, mean_std, weighted_sum
from .overlap import CANON_MODES, OverlapMap, compute_overlap
from .script_groups import ScriptGroup, classify_token, group_members

MISSING_AUX_POLICIES = ("random-fallback", "error")

# Byte budget of one (query rows x support) float64 block of cosines or
# weights: a block holds _BLOCK_BYTES // (8 * support size) query rows, at
# least one. The weight rule and the cosine product each hold a few such
# blocks at once.
_BLOCK_BYTES = 16 << 20
# Byte budget of the reused float64 buffer that sampled rows are drawn
# into: _DRAW_BYTES // (8 * columns of all target matrices) rows, at least
# one.
_DRAW_BYTES = 2 << 20
# Groups listed in the report's group_sampled_by_group.
_GROUP_SAMPLE = 8
# Zero-norm query ids quoted in the report's warning.
_ZERO_NORM_SAMPLE = 5


@dataclass(frozen=True)
class InitConfig:
    """Knobs of the initialization methods; METHOD_SPECS names the fields
    each method reads besides method and seed.

    The seed is mandatory and must be fixed before any sampling; there is
    no wall-clock default anywhere in the package.
    """

    method: str
    seed: int
    sparsemax_temperature: float = 1.0
    min_group_size: int = 10
    missing_aux_policy: str = "random-fallback"
    clp_raw_weights: bool = False
    overlap_canon: str = "exact"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValidationError(f"unknown method {self.method!r}; expected one of {METHODS}")
        # int() in _stream_states would truncate a float, parse a str, take a bool.
        seed_is_int = isinstance(self.seed, (int, np.integer)) and not isinstance(self.seed, bool)
        if not (seed_is_int and 0 <= self.seed < 2**64):
            raise ValidationError("seed must be an unsigned 64-bit integer")
        if not self.sparsemax_temperature > 0:
            raise ValidationError("sparsemax temperature must be > 0")
        if self.sparsemax_temperature < 2**-53:
            # Keeps |cosine / T| <= 2**53, where sparsemax's top entry
            # always stays in its support.
            raise ValidationError("sparsemax temperature must be >= 2**-53")
        if self.min_group_size < 1:
            raise ValidationError("min group size must be >= 1")
        if self.missing_aux_policy not in MISSING_AUX_POLICIES:
            raise ValidationError(
                f"unknown missing-aux policy {self.missing_aux_policy!r}; "
                f"expected one of {MISSING_AUX_POLICIES}"
            )
        if self.overlap_canon not in CANON_MODES:
            raise ValidationError(f"unknown canonicalization mode {self.overlap_canon!r}")


@dataclass
class InitReport:
    """Where each target row came from; counters sum to |target vocab|.

    `zero_norm_queries` and `uniform_fallbacks` are diagnostics inside
    `similarity_initialized`, not part of the sum: similarity rows whose
    auxiliary vector is all zero, and clp rows with a nonzero vector whose
    cosines left nothing to normalize (all clamped to 0, or raw cosines
    summing to 0). Both kinds take uniform weights over the support.
    `support_size` and `support_dropped`, also outside the sum, split the
    copied rows of a similarity method: those in the similarity support,
    and those left out of it for lack of an auxiliary vector. Both are 0
    for random and heuristics. `nonzero_weights` gives the min, p50, p90
    and max of the number of nonzero weights per similarity row (a uniform
    row counts `support_size`), as nearest-rank order statistics; all 0
    when no row was weighted. `group_sampled_by_group` maps the labels of
    the largest heuristics groups (at most `_GROUP_SAMPLE`, ties broken by
    label) to their rows inside `group_sampled`, keys sorted; it is empty
    for the other methods.
    """

    method: str
    copied: int = 0
    similarity_initialized: int = 0
    group_sampled: int = 0
    random_fallback: int = 0
    zero_norm_queries: int = 0
    uniform_fallbacks: int = 0
    support_size: int = 0
    support_dropped: int = 0
    nonzero_weights: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(("min", "p50", "p90", "max"), 0)
    )
    group_sampled_by_group: dict[str, int] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    def counter_total(self) -> int:
        return (
            self.copied
            + self.similarity_initialized
            + self.group_sampled
            + self.random_fallback
        )

    def to_dict(self) -> dict:
        return asdict(self)


def _nearest_rank_quantiles(counts: list[int]) -> dict[str, int]:
    """min, p50, p90 and max of `counts`: the ceil(p * n / 100)-th smallest
    value for each percentile p, so every one is an element of `counts`."""
    ranked = sorted(counts)
    n = len(ranked)
    return {
        "min": ranked[0],
        "p50": ranked[(50 * n + 99) // 100 - 1],
        "p90": ranked[(90 * n + 99) // 100 - 1],
        "max": ranked[-1],
    }


def _seed_hash(words: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """One step of numpy's SeedSequence hash on a uint32 array, with the
    hash constant `const`: (the hashed words, the next constant)."""
    words = words ^ np.uint32(const)
    const = const * mult & 0xFFFFFFFF
    words *= np.uint32(const)
    words ^= words >> 16
    return words, const


def _stream_states(seed: int, ids) -> np.ndarray:
    """The PCG64 seed words of each token's stream, shape (len(ids), 4):
    row i is `SeedSequence([seed, ids[i]]).generate_state(4, np.uint64)`,
    computed for all ids at once by numpy's algorithm in uint32 arithmetic.

    The entropy of [seed, t] is the 32-bit words of seed, then those of t,
    low word first; 0 takes one zero word. A seed below 2**64 and an id
    below 2**63 take at most four words, numpy's pool size, so no word is
    mixed in after the pool is filled. SeedSequence pads a short entropy
    with zero words, and an id below 2**32 has a zero high word, so every
    id takes two words here.
    """
    # PCG64 takes _token_rng's _StreamSeed once it is a registered seed sequence.
    np.random.bit_generator.ISeedSequence.register(_StreamSeed)
    seed = int(seed)
    ids = np.asarray(ids, dtype=np.uint64)
    seed_words = [seed & 0xFFFFFFFF] + ([seed >> 32] if seed >> 32 else [])
    pool = np.zeros((4, len(ids)), dtype=np.uint32)
    pool[: len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    pool[len(seed_words)] = ids & 0xFFFFFFFF
    pool[len(seed_words) + 1] = ids >> 32
    # mix_entropy: hash each word, then mix every word into every other.
    # The constants are numpy's INIT_A, MULT_A, MIX_MULT_L and MIX_MULT_R,
    # then INIT_B and MULT_B.
    const = 0x43B0D7E5
    for i in range(4):
        pool[i], const = _seed_hash(pool[i], const, 0x931E8875)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                hashed, const = _seed_hash(pool[src], const, 0x931E8875)
                mixed = np.uint32(0xCA01F9DD) * pool[dst] - np.uint32(0x4973F715) * hashed
                pool[dst] = mixed ^ (mixed >> 16)
    # generate_state(4, np.uint64): eight uint32 words cycled from the pool,
    # read in little-endian pairs.
    const = 0x8B51F9DD
    state = np.empty((len(ids), 8), dtype="<u4")
    for i in range(8):
        state[:, i], const = _seed_hash(pool[i % 4], const, 0x58F38DED)
    return state.view("<u8").astype(np.uint64, copy=False)


class _StreamSeed:
    """One token's SeedSequence, its state precomputed by _stream_states;
    PCG64 reads it by generate_state(4, np.uint64). _stream_states
    registers it as numpy's ISeedSequence, which PCG64 requires: numpy.random
    (about 6 MiB) then loads on the first draw, not with this module."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype):
        return self.state


def _token_rng(state: np.ndarray) -> np.random.Generator:
    """The generator of a token's stream from its row of _stream_states:
    the stream of `default_rng(SeedSequence([seed, t]))`."""
    return np.random.Generator(np.random.PCG64(_StreamSeed(state)))


def _element_stats(m: EmbeddingMatrix) -> tuple[float, float]:
    """Float64 (mean, std) over every element, summed in kernels.mean_std's
    fixed order of row blocks; no temporary exceeds one block."""
    mean, std = mean_std(m.data)
    return float(mean), float(std)


def _id_array(values, bound: int, fault) -> np.ndarray:
    """`values` as an int64 array of ids in 0..bound-1, each read with
    operator.index, so that no float or str is coerced and a bool is 0 or 1.
    Raises ValidationError(fault(i, value)) at the first value, the i-th,
    that is not such an id; `value` is passed as a Python int if it is an
    integer, as it is otherwise."""
    try:
        ids = np.fromiter(map(operator.index, values), dtype=np.int64, count=len(values))
    except (TypeError, OverflowError):
        ids = None
    if ids is not None and not ((ids < 0) | (ids >= bound)).any():
        return ids
    for i, value in enumerate(values):
        try:
            value = operator.index(value)
        except TypeError:
            pass
        else:
            if 0 <= value < bound:
                continue
        raise ValidationError(fault(i, value))


def _check_source(source: ModelBundle) -> None:
    problems = validate_bundle(source)
    if problems:
        raise ValidationError("invalid source bundle: " + "; ".join(problems))


def _require_kind(aux: AuxEmbeddings | None, kind: str, method: str) -> None:
    if aux is None:
        raise ValidationError(f"method {method!r} requires {kind} auxiliary vectors")
    if aux.source_kind != kind:
        raise ValidationError(
            f"method {method!r} requires {kind} auxiliary vectors, got {aux.source_kind!r}"
        )


class _TargetRows:
    """The validated inputs and target matrices of one initialization call.

    The overlap map is checked once and kept as three int64 arrays, the
    only form any method reads: `paired`, the copied target ids ascending,
    `paired_src`, the source row of each, and `free`, the other target ids
    in the map's order. `sources` holds the source input matrix and, for
    untied models, the output matrix; `outs` holds one target matrix for
    each, written only by `put`, and `stats` the element (mean, std) of
    each source matrix, taken on the first `sample_random` with a row.
    Every per-token decision is applied to all matrices alike.
    """

    def __init__(
        self,
        method: str,
        source: ModelBundle,
        target_vocab: Vocabulary,
        cfg: InitConfig,
        overlap: OverlapMap | None = None,
    ):
        _check_source(source)
        n = len(target_vocab)
        overlap = OverlapMap(pairs={}, non_overlap=list(range(n))) if overlap is None else overlap
        partition = "overlap map does not partition the target ids: "

        def bad_id(part):
            return lambda i, t: partition + (
                f"{part} holds id {t}, out of range 0..{n - 1}"
                if isinstance(t, int)
                else f"{part} holds {t!r}, not an integer"
            )

        t_ids = _id_array(overlap.pairs, n, bad_id("pairs"))
        self.free = _id_array(overlap.non_overlap, n, bad_id("non_overlap"))
        # Every id in 0..n-1 must be in exactly one place; a dict holds
        # each pairs key once.
        in_free = np.bincount(self.free, minlength=n)
        counts = in_free + np.bincount(t_ids, minlength=n)
        if (counts != 1).any():
            t = int(np.argmax(counts != 1))
            fault = (
                f"id {t} is missing" if not counts[t]
                else f"non_overlap repeats id {t}" if in_free[t] > 1
                else f"id {t} is in both pairs and non_overlap"
            )
            raise ValidationError(partition + fault)
        rows = source.input_emb.rows
        s_ids = _id_array(
            overlap.pairs.values(),
            rows,
            lambda i, s: f"overlap map pairs target id {t_ids[i]} with source id {s!r}, "
            f"outside the source's {rows} rows",
        )
        order = np.argsort(t_ids)
        self.paired, self.paired_src = t_ids[order], s_ids[order]
        self.target_vocab = target_vocab
        self.seed = cfg.seed
        self.sources = [m for m in (source.input_emb, source.output_emb) if m is not None]
        if any(m.data.size == 0 for m in self.sources):
            raise ValidationError("source matrix has no elements to estimate statistics from")
        self.outs = [np.empty((n, m.cols), dtype=np.float32) for m in self.sources]
        self.report = InitReport(method=method, copied=len(t_ids), warnings=list(overlap.warnings))
        # Copied in source order, one block of source rows at a time (more
        # pairs than a block only where target tokens share a source row),
        # so each block maps only its own pages of a mapped source.
        by_src = np.argsort(self.paired_src, kind="stable")
        t_by_src, s_by_src = self.paired[by_src], self.paired_src[by_src]
        for block in _row_blocks(rows):
            lo, hi = np.searchsorted(s_by_src, (block.start, block.stop))
            for part in _row_blocks(hi - lo):
                t, s = t_by_src[lo:hi][part], s_by_src[lo:hi][part]
                self.put(t, (_gather(m.data, s) for m in self.sources))

    def put(self, ids, parts) -> None:
        """Write rows `ids` of each target matrix from that matrix's part,
        taken from `parts` in turn; the only writer of `outs`."""
        for out, part in zip(self.outs, parts):
            out[ids] = part

    def sample(self, ids: np.ndarray | list[int], params: list[tuple]) -> None:
        """Fill rows `ids` of each target matrix with float32(mean + std * z).

        `params` holds one (mean, std) per matrix, scalars or per-column
        arrays. Each token's z comes from one standard_normal call on its
        own stream, drawn into a row of a reused block buffer as wide as all
        matrices together; the block is scaled and shifted in place, and
        split into each matrix's columns.
        """
        widths = [m.cols for m in self.sources]
        mean = np.concatenate([np.broadcast_to(m, w) for (m, _), w in zip(params, widths)])
        std = np.concatenate([np.broadcast_to(s, w) for (_, s), w in zip(params, widths)])
        block_rows = max(1, _DRAW_BYTES // (8 * len(mean)))
        z = np.empty((min(block_rows, len(ids)), len(mean)))
        for start in range(0, len(ids), block_rows):
            block = ids[start : start + block_rows]
            draws = z[: len(block)]
            for row, state in zip(draws, _stream_states(self.seed, block)):
                _token_rng(state).standard_normal(out=row)
            draws *= std
            draws += mean
            self.put(block, np.split(draws, np.cumsum(widths[:-1]), axis=1))

    @cached_property
    def stats(self) -> list[tuple[float, float]]:
        """The element (mean, std) of each source matrix, taken on first
        read, so a run that samples no row from them never reads them."""
        return [_element_stats(m) for m in self.sources]

    def sample_random(self, ids: np.ndarray | list[int]) -> None:
        """Fill rows `ids` from the whole-matrix element statistics."""
        if len(ids):
            self.sample(ids, self.stats)
        self.report.random_fallback += len(ids)

    def result(self) -> tuple[ModelBundle, InitReport]:
        input_emb, *output_emb = (EmbeddingMatrix(out) for out in self.outs)
        bundle = ModelBundle(
            vocab=self.target_vocab,
            input_emb=input_emb,
            output_emb=output_emb[0] if output_emb else None,
        )
        return bundle, self.report


def init_random(
    source: ModelBundle, target_vocab: Vocabulary, cfg: InitConfig
) -> tuple[ModelBundle, InitReport]:
    """Sample every target row from the source matrix's element statistics."""
    rows = _TargetRows("random", source, target_vocab, cfg)
    rows.sample_random(rows.free)
    return rows.result()


def _clp_weights(
    cosines: SupportCosines, queries: np.ndarray, cfg: InitConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Raw cosines (cfg.clp_raw_weights) are not clamped, so their weights
    # may be negative and a row's combination not convex.
    sims, zero = cosines(queries)
    weights = sims if cfg.clp_raw_weights else np.maximum(sims, 0.0, out=sims)
    totals = weights.sum(axis=1)
    uniform = np.abs(totals) < 1e-12 if cfg.clp_raw_weights else ~(totals > 0.0)
    weights /= np.where(uniform, 1.0, totals)[:, None]
    weights[uniform] = 1.0 / sims.shape[1]
    return weights, uniform, zero


def _sparsemax_weights(
    cosines: SupportCosines, queries: np.ndarray, cfg: InitConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    weights, zero = cosines.sparsemax(queries, cfg.sparsemax_temperature)
    return weights, np.zeros(len(weights), dtype=bool), zero


def _similarity_init(
    method: str,
    source: ModelBundle,
    target_vocab: Vocabulary,
    overlap: OverlapMap,
    aux: AuxEmbeddings,
    cfg: InitConfig,
) -> tuple[ModelBundle, InitReport]:
    spec = METHOD_SPECS[method]
    _require_kind(aux, spec.aux, method)
    align = aux.vocab_alignment
    aux_rows = _id_array(
        align.values(),
        aux.matrix.rows,
        lambda i, r: f"auxiliary vectors align target id {list(align)[i]} with row {r!r}, "
        f"outside the {aux.matrix.rows} auxiliary rows",
    )
    # The aux row of every target id, -1 where it has none; alignment keys
    # that are no target id are never read.
    row_of = dict(zip(align, aux_rows.tolist()))
    aux_of = np.array([row_of.get(t, -1) for t in range(len(target_vocab))], dtype=np.int64)
    rows = _TargetRows(method, source, target_vocab, cfg, overlap)
    report = rows.report

    # Support = overlap tokens that actually have an auxiliary vector;
    # fabricating zero similarities for the rest would still let them
    # compete inside sparsemax. Non-overlap tokens with a vector are
    # queries, weighted in blocks below; the rest are sampled.
    in_support = aux_of[rows.paired] >= 0
    supp_src = rows.paired_src[in_support]
    has_aux = aux_of[rows.free] >= 0
    query_t, missing = rows.free[has_aux], rows.free[~has_aux]
    n_supp = report.support_size = len(supp_src)
    if len(query_t) and not n_supp:
        raise ValidationError(
            "no overlapping token has an auxiliary vector; cannot form a "
            "similarity support"
        )
    if len(missing) and cfg.missing_aux_policy == "error":
        raise ValidationError(
            f"token {target_vocab.tokens[missing[0]]!r} (id {missing[0]}) has no auxiliary vector"
        )
    report.support_dropped = len(rows.paired) - n_supp
    if report.support_dropped:
        report.warnings.append(
            f"{report.support_dropped} overlapping tokens lack auxiliary vectors "
            "and are excluded from the similarity support"
        )
    if n_supp:
        support = SupportCosines(aux.matrix.data, aux_of[rows.paired[in_support]])
        zero_support = int(np.count_nonzero(support.zero_rows))
        if zero_support:
            report.warnings.append(
                f"{zero_support} support vectors have zero norm and contribute "
                "zero similarity"
            )
    rows.sample_random(missing)

    zero_ids: list[int] = []  # the first _ZERO_NORM_SAMPLE zero-norm queries
    nonzero: list[int] = []  # nonzero weights per query row
    uniform_rows = None  # the uniform-weight combination, made at most once
    block_rows = max(1, _BLOCK_BYTES // (8 * max(n_supp, 1)))
    for start in range(0, len(query_t), block_rows):
        block = query_t[start : start + block_rows]
        queries = _gather(aux.matrix.data, aux_of[block])
        weights, uniform, zero = spec.weigh(support, queries, cfg)
        report.zero_norm_queries += int(np.count_nonzero(zero))
        report.uniform_fallbacks += int(np.count_nonzero(uniform & ~zero))
        zero_ids += block[np.flatnonzero(zero)[: _ZERO_NORM_SAMPLE - len(zero_ids)]].tolist()
        nonzero += np.count_nonzero(weights, axis=1).tolist()
        convex = np.all(weights >= 0.0, axis=1)
        uniform |= zero
        for t, w, is_convex, is_uniform in zip(block, weights, convex, uniform):
            if is_uniform:
                if uniform_rows is None:
                    flat = WeightVector(supp_src, np.full(n_supp, 1.0 / n_supp))
                    uniform_rows = [convex_combine(flat, m) for m in rows.sources]
                mixed = uniform_rows
            else:
                nz = np.flatnonzero(w)
                sparse = WeightVector(supp_src[nz], w[nz])
                combine = convex_combine if is_convex else weighted_sum
                mixed = [combine(sparse, m) for m in rows.sources]
            rows.put(t, mixed)
        report.similarity_initialized += len(block)
    if nonzero:
        report.nonzero_weights = _nearest_rank_quantiles(nonzero)
    if zero_ids:
        more = ", ..." if report.zero_norm_queries > len(zero_ids) else ""
        report.warnings.append(
            f"{report.zero_norm_queries} queries have zero-norm auxiliary vectors "
            f"(target ids {', '.join(map(str, zero_ids))}{more}); their weights "
            "fall back to uniform"
        )
    return rows.result()


def init_clp(
    source: ModelBundle,
    target_vocab: Vocabulary,
    overlap: OverlapMap,
    aux: AuxEmbeddings,
    cfg: InitConfig,
) -> tuple[ModelBundle, InitReport]:
    """Copy overlap rows; weight the rest by clamped, normalized cosines.

    Negative cosines clamp to zero before normalization so the combination
    stays convex; if everything clamps away the weights fall back to
    uniform. `cfg.clp_raw_weights` switches to normalizing the raw cosines
    by their sum instead.
    """
    return _similarity_init("clp", source, target_vocab, overlap, aux, cfg)


def init_focus(
    source: ModelBundle,
    target_vocab: Vocabulary,
    overlap: OverlapMap,
    vectors: AuxEmbeddings,
    cfg: InitConfig,
) -> tuple[ModelBundle, InitReport]:
    """Copy overlap rows; weight the rest by sparsemax over word-vector cosines."""
    return _similarity_init("focus", source, target_vocab, overlap, vectors, cfg)


def init_clp_plus(
    source: ModelBundle,
    target_vocab: Vocabulary,
    overlap: OverlapMap,
    aux: AuxEmbeddings,
    cfg: InitConfig,
) -> tuple[ModelBundle, InitReport]:
    """The focus pipeline with similarities taken from an auxiliary model."""
    return _similarity_init("clp-plus", source, target_vocab, overlap, aux, cfg)


def init_heuristics(
    source: ModelBundle,
    target_vocab: Vocabulary,
    overlap: OverlapMap,
    cfg: InitConfig,
) -> tuple[ModelBundle, InitReport]:
    """Copy overlap rows; sample the rest from per-group source statistics.

    Groups with fewer than `cfg.min_group_size` source members, and tokens
    classified Unknown, fall back to whole-matrix statistics (counted as
    random-fallback). The new tokens are classified first; of the source
    vocabulary, only the tokens that can join one of their groups other
    than Unknown are classified (see `group_members`). Group statistics are
    computed only for the groups that sample rows, all before the first row
    is drawn; Unknown groups and groups too small to sample never get any.
    """
    rows = _TargetRows("heuristics", source, target_vocab, cfg, overlap)
    report = rows.report
    free = rows.free.tolist()
    groups = [classify_token(target_vocab.tokens[t]) for t in free]
    # Both source matrices share the vocabulary, so it is classified once.
    members = group_members(source.vocab, {g for g in groups if g.script != "Unknown"})
    fallback: list[int] = []
    by_group: dict[ScriptGroup, list[int]] = {}
    for t, group in zip(free, groups):
        if group.script == "Unknown" or len(members.get(group, ())) < cfg.min_group_size:
            fallback.append(t)
        else:
            by_group.setdefault(group, []).append(t)
    params = {g: [mean_std(m.data, members[g], axis=0) for m in rows.sources] for g in by_group}
    rows.sample_random(fallback)
    for group, ids in by_group.items():
        rows.sample(ids, params[group])
        report.group_sampled += len(ids)
    largest = sorted(by_group.items(), key=lambda kv: (-len(kv[1]), kv[0].label()))
    report.group_sampled_by_group = dict(
        sorted((group.label(), len(ids)) for group, ids in largest[:_GROUP_SAMPLE])
    )
    return rows.result()


@dataclass(frozen=True)
class MethodSpec:
    """What one initialization method reads, and how it runs.

    `aux` is the kind of auxiliary vectors it needs (AUX_MODEL or
    WORD_VECTORS), None if it needs none. `reads` holds the InitConfig
    fields it reads besides method and seed. `init` is its public function,
    which takes (source, target_vocab, overlap, aux, cfg) less the overlap
    map if the method does not read overlap_canon and less aux if it needs
    none. `weigh`, for a similarity method, turns the support's
    SupportCosines, a (rows, dim) block of query vectors and the config
    into (weights, uniform, zero): a (rows, support) block of weights, and
    per row whether they fell back to uniform and whether the query is all
    zero. Every rule gives a zero-norm query 1/n weights. clp needs every
    cosine; the sparsemax methods need exact cosines only where a weight
    can be nonzero.
    """

    aux: str | None
    reads: frozenset[str]
    init: Callable
    weigh: Callable | None = None


_SIMILARITY_READS = frozenset({"overlap_canon", "missing_aux_policy"})
# The one record of each method: the CLI takes its aux flags and the
# options it accepts from here, and init_target_bundle dispatches by it.
METHOD_SPECS = {
    "random": MethodSpec(None, frozenset(), init_random),
    "clp": MethodSpec(AUX_MODEL, _SIMILARITY_READS | {"clp_raw_weights"}, init_clp, _clp_weights),
    "heuristics": MethodSpec(None, frozenset({"overlap_canon", "min_group_size"}), init_heuristics),
    "focus": MethodSpec(
        WORD_VECTORS, _SIMILARITY_READS | {"sparsemax_temperature"}, init_focus, _sparsemax_weights
    ),
    "clp-plus": MethodSpec(
        AUX_MODEL, _SIMILARITY_READS | {"sparsemax_temperature"}, init_clp_plus, _sparsemax_weights
    ),
}
METHODS = tuple(METHOD_SPECS)


def init_target_bundle(
    source: ModelBundle,
    target_vocab: Vocabulary,
    cfg: InitConfig,
    aux: AuxEmbeddings | None = None,
) -> tuple[ModelBundle, InitReport]:
    """Run the configured method's `init` from METHOD_SPECS, passing the
    overlap map and the aux vectors if the method reads them, and check
    the report's counters.

    Tied sources produce tied targets (no output matrix); untied sources
    get an output matrix built with the same per-token decisions. The
    method functions validate the source bundle and the auxiliary vectors.
    """
    spec = METHOD_SPECS[cfg.method]
    inputs = []
    if "overlap_canon" in spec.reads:
        inputs.append(compute_overlap(source.vocab, target_vocab, cfg.overlap_canon))
    if spec.aux is not None:
        inputs.append(aux)
    bundle, report = spec.init(source, target_vocab, *inputs, cfg)
    if report.counter_total() != len(target_vocab):
        raise VocabportError(
            f"internal error: report counters cover {report.counter_total()} of "
            f"{len(target_vocab)} tokens"
        )
    return bundle, report
