"""vocabport: vocabulary transplant toolkit.

Initializes target-vocabulary embedding matrices from a source model and
measures the tokenization efficiency gain of swapping tokenizers.

The public names below load their module when first read (PEP 562), so
`import vocabport` imports no submodule, and a program that reads only
tokenizer, corpus, overlap and vocabulary names never imports numpy: only
the modules that touch matrices (`aux_vectors`, `initializers`, `kernels`,
`script_groups`, and `embedding_store`'s matrix functions) load it.
"""

import importlib

# Public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "aux_vectors": ("AUX_MODEL", "WORD_VECTORS", "AuxEmbeddings", "aux_row",
                        "load_aux_model", "load_word_vectors"),
        "efficiency": ("CorpusSample", "EfficiencyReport", "analyze_corpus", "avg_tokens",
                       "kendall_tau", "load_corpus", "speedup_ratio"),
        "embedding_store": ("EmbeddingMatrix", "ModelBundle", "Vocabulary", "load_matrix",
                            "load_vocab", "save_matrix", "sniff_vocab_format",
                            "validate_bundle"),
        "errors": ("FormatError", "MalformedSpecError", "ValidationError", "VocabportError"),
        "initializers": ("InitConfig", "InitReport", "init_clp", "init_clp_plus", "init_focus",
                         "init_heuristics", "init_random", "init_target_bundle"),
        "kernels": ("WeightVector", "convex_combine", "cosine_similarity", "sparsemax"),
        "overlap": ("OverlapMap", "compute_overlap", "overlap_stats"),
        "script_groups": ("GroupStats", "ScriptGroup", "classify_token", "group_statistics"),
        "tokenizers": ("BpeSpec", "TokenizerSpec", "UnigramSpec", "bpe_decode", "bpe_encode",
                       "byte_level_pretokenize", "count_tokens", "encode", "load_bpe_spec",
                       "load_unigram_spec", "split_pretokens", "unigram_encode"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    # Looked up on every read, so a name the module rebinds later (a
    # wrapper, a test's patch) is the one returned.
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
