"""sourcescope: detection and analysis of social-media source citations in news text."""

from sourcescope.corpus import Article, Corpus, MediaType, ingest, serialize, stratified_sample
from sourcescope.patterns import (
    CitationPattern,
    PatternSet,
    Platform,
    default_patterns,
    load_patterns,
)
from sourcescope.extractor import ExtractionResult, Kind, SourceMention, extract_corpus, extract_mentions

__version__ = "0.1.0"
