"""vocabport: vocabulary transplant toolkit.

Initializes target-vocabulary embedding matrices from a source model and
measures the tokenization efficiency gain of swapping tokenizers.
"""

from .aux_vectors import AUX_MODEL, WORD_VECTORS, AuxEmbeddings, aux_row, load_aux_model, load_word_vectors
from .efficiency import (
    CorpusSample,
    EfficiencyReport,
    analyze_corpus,
    avg_tokens,
    kendall_tau,
    load_corpus,
    speedup_ratio,
)
from .embedding_store import (
    EmbeddingMatrix,
    ModelBundle,
    Vocabulary,
    load_matrix,
    load_vocab,
    save_matrix,
    sniff_vocab_format,
    validate_bundle,
)
from .errors import FormatError, MalformedSpecError, ValidationError, VocabportError
from .initializers import (
    InitConfig,
    InitReport,
    init_clp,
    init_clp_plus,
    init_focus,
    init_heuristics,
    init_random,
    init_target_bundle,
)
from .kernels import WeightVector, convex_combine, cosine_similarity, sparsemax
from .overlap import OverlapMap, compute_overlap, overlap_stats
from .script_groups import GroupStats, ScriptGroup, classify_token, group_statistics
from .tokenizers import (
    BpeSpec,
    TokenizerSpec,
    UnigramSpec,
    bpe_decode,
    bpe_encode,
    byte_level_pretokenize,
    count_tokens,
    encode,
    load_bpe_spec,
    load_unigram_spec,
    split_pretokens,
    unigram_encode,
)

__version__ = "0.1.0"
