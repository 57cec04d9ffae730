"""Keystroke recovery from USB keyboard EM emanation, end to end in software.

Synthesizes bit-exact USB 2.0 full-speed keystroke transactions, radiates
their edge transitions through a parameterized emanation channel, and
recovers the typed key by matching detected edge series against the
70-key reference set.
"""

from .bits import (
    LineState,
    bit_destuff,
    bit_stuff,
    nrzi_decode,
    nrzi_encode,
)
from .channel import (
    ChannelPreset,
    EmanationTrace,
    Interferer,
    PulseShape,
    apply_channel,
    available_presets,
    distance_to_gain_db,
    get_preset,
    inject_glitch,
    load_preset,
    radiate,
    synth_dataset,
)
from .crc import crc5, crc16
from .detector import (
    DEFAULT_CONFIG,
    DetectionResult,
    Detections,
    DetectorConfig,
    detect,
    detect_batch,
    normalize,
    threshold_and_peaks,
)
from .edges import (
    EdgeSeries,
    ReferenceSet,
    build_reference_set,
    edges_analytic,
    min_pairwise_distance,
    simulate_probed_waveform,
    wired_pipeline_edges,
)
from .errors import (
    ConfigError,
    CsvParseError,
    DegenerateTraceError,
    EmanakeyError,
    EmptySeriesError,
    FileFormatError,
    FileVersionError,
    FramingError,
    MalformedStreamError,
    NoSignalError,
    SampleRateError,
    TraceIOError,
    TruncatedFileError,
    UnknownKeyError,
    UnknownPresetError,
)
from .frames import (
    Frame,
    Packet,
    PacketKind,
    build_keystroke_transaction,
)
from .keys import (
    KEYS,
    HidReport,
    KeyId,
    hid_report_for_key,
    key_by_index,
    key_by_label,
)
from .traceio import (
    SweepReport,
    SweepRow,
    import_csv,
    read_reference_set,
    read_report,
    read_trace,
    write_reference_set,
    write_report,
    write_trace,
)

__version__ = "0.1.0"
