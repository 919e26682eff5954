"""Exception hierarchy shared across the toolchain.

Grouped by pipeline stage so the CLI can map error categories to stable
exit codes (I/O vs. parse vs. numeric failures).
"""


class BotgridError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(BotgridError):
    """Input bytes/text do not conform to their declared format."""


# --- ZIP / APK container ---

class NotAZip(ParseError):
    pass


class UnsupportedCompression(ParseError):
    pass


class TruncatedArchive(ParseError):
    pass


class EntryTooLarge(ParseError):
    """An archive entry declares more bytes than the reader will inflate."""


# --- Binary XML / plaintext manifest ---

class BadMagic(ParseError):
    pass


class TruncatedChunk(ParseError):
    pass


class UnbalancedElements(ParseError):
    pass


class BadStringIndex(ParseError):
    pass


class MalformedXml(ParseError):
    pass


# --- Vocabulary / corpus files ---

class EmptyCorpus(BotgridError):
    pass


class DuplicateEntry(ParseError):
    pass


class EmptyFile(ParseError):
    pass


class ManifestCsvError(ParseError):
    pass


class NotUtf8(ParseError):
    """A permission list, vocabulary or dataset CSV is not UTF-8 text."""


# --- NN engine ---

class ShapeMismatch(BotgridError):
    pass


class EmptyBatch(BotgridError):
    pass


class NonFiniteLoss(BotgridError):
    """Training diverged: loss or gradients left the finite range."""


class VersionMismatch(ParseError):
    pass


class ChecksumMismatch(ParseError):
    pass


# --- Pipeline ---

class EmptyDataset(BotgridError):
    pass


class TooFewSamples(BotgridError):
    pass


class AllSamplesFailed(BotgridError):
    pass


class InvalidSpec(BotgridError):
    pass
