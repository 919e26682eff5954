"""Seeded input generator for the benchmark.

Writes labelled corpora in the four input forms botgrid ingests:
permission lists, plaintext manifests, binary (AXML) manifests with
UTF-16 or UTF-8 string pools, and APKs built with the stdlib zipfile
whose manifest entry is stored or DEFLATE-compressed.  The AXML encoder
here is written from the wire format and does not import the package
under test.  Every corpus also records each app's true permission set
(truth.json) so the checks never have to trust the program's parse.

The seed fixes the permission draws, the label order, which app gets
which input form and which APK gets which payload size.  The number of
apps of each form and the multiset of APK sizes do not depend on the
seed, so every seed asks the program for the same amount of work.  A
warm-up corpus gives every APK the same payload size, so the set-up
pass that reads it does the same work on every seed too.

The mix of forms and the APK sizes are assumptions, not measurements:
no size or format statistics for the paper's 5450 apps were at hand.
form_counts and APK_TIERS say which layer each share is there to
exercise.
"""

from __future__ import annotations

import csv
import json
import struct
import zipfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

ANDROID_URI = "http://schemas.android.com/apk/res/android"
TOOLS_URI = "http://schemas.android.com/tools"

# Platform permissions plus vendor ones.
_PLATFORM = """
ACCESS_COARSE_LOCATION ACCESS_FINE_LOCATION ACCESS_LOCATION_EXTRA_COMMANDS
ACCESS_NETWORK_STATE ACCESS_WIFI_STATE BATTERY_STATS BLUETOOTH BLUETOOTH_ADMIN
BROADCAST_STICKY CALL_PHONE CAMERA CHANGE_CONFIGURATION CHANGE_NETWORK_STATE
CHANGE_WIFI_MULTICAST_STATE CHANGE_WIFI_STATE CLEAR_APP_CACHE DISABLE_KEYGUARD
EXPAND_STATUS_BAR FLASHLIGHT GET_ACCOUNTS GET_PACKAGE_SIZE GET_TASKS
INSTALL_SHORTCUT INTERNET KILL_BACKGROUND_PROCESSES MANAGE_ACCOUNTS
MODIFY_AUDIO_SETTINGS MOUNT_UNMOUNT_FILESYSTEMS NFC PROCESS_OUTGOING_CALLS
READ_CALENDAR READ_CALL_LOG READ_CONTACTS READ_EXTERNAL_STORAGE READ_LOGS
READ_PHONE_STATE READ_SMS READ_SYNC_SETTINGS RECEIVE_BOOT_COMPLETED
RECEIVE_MMS RECEIVE_SMS RECORD_AUDIO REORDER_TASKS RESTART_PACKAGES SEND_SMS
SET_ALARM SET_WALLPAPER SYSTEM_ALERT_WINDOW UNINSTALL_SHORTCUT USE_CREDENTIALS
VIBRATE WAKE_LOCK WRITE_CALENDAR WRITE_CALL_LOG WRITE_CONTACTS
WRITE_EXTERNAL_STORAGE WRITE_SETTINGS WRITE_SMS WRITE_SYNC_SETTINGS
CHANGE_COMPONENT_ENABLED_STATE DELETE_PACKAGES INSTALL_PACKAGES
MODIFY_PHONE_STATE READ_PROFILE WRITE_APN_SETTINGS FOREGROUND_SERVICE
""".split()
_VENDOR = [
    "com.android.launcher.permission.INSTALL_SHORTCUT",
    "com.android.launcher.permission.READ_SETTINGS",
    "com.android.vending.BILLING",
    "com.android.vending.CHECK_LICENSE",
    "com.google.android.c2dm.permission.RECEIVE",
    "com.google.android.gms.permission.ACTIVITY_RECOGNITION",
    "com.google.android.providers.gsf.permission.READ_GSERVICES",
    "com.htc.launcher.permission.READ_SETTINGS",
    "com.sec.android.provider.badge.permission.READ",
    "com.sonyericsson.home.permission.BROADCAST_BADGE",
    "com.huawei.android.launcher.permission.CHANGE_BADGE",
    "com.majeur.launcher.permission.UPDATE_BADGE",
    "com.anddoes.launcher.permission.UPDATE_COUNT",
    "me.everything.badger.permission.BADGE_COUNT_READ",
]
UNIVERSE = tuple(f"android.permission.{p}" for p in _PLATFORM) + tuple(_VENDOR)

def _platform(*names: str) -> tuple[str, ...]:
    return tuple(f"android.permission.{n}" for n in names)


# Both classes request the common block, each class has its own signature
# block, and every other permission of the universe is background noise.
COMMON = _platform("INTERNET", "ACCESS_NETWORK_STATE", "ACCESS_WIFI_STATE")
BOTNET_SIGNATURE = _platform(
    "READ_PHONE_STATE", "READ_SMS", "RECEIVE_SMS", "SEND_SMS", "WRITE_SMS",
    "RECEIVE_BOOT_COMPLETED", "PROCESS_OUTGOING_CALLS", "READ_CONTACTS", "CALL_PHONE",
    "READ_LOGS", "INSTALL_PACKAGES", "DELETE_PACKAGES", "SYSTEM_ALERT_WINDOW",
    "WRITE_APN_SETTINGS",
)
BENIGN_SIGNATURE = _platform(
    "CAMERA", "VIBRATE", "WAKE_LOCK", "WRITE_EXTERNAL_STORAGE", "READ_EXTERNAL_STORAGE",
    "ACCESS_FINE_LOCATION", "GET_ACCOUNTS", "FOREGROUND_SERVICE",
) + ("com.android.vending.BILLING", "com.google.android.c2dm.permission.RECEIVE")
COMMON_PROB = 0.9
SIGNATURE_PROB = 1.0
NOISE_PROB = 0.03

LABELS = ("benign", "botnet")
# Input form -> the dataset manifest's kind column.
FORM_KIND = {
    "permlist": "permlist",
    "xml": "manifest",
    "axml16": "manifest",
    "axml8": "manifest",
    "apk_stored": "apk",
    "apk_deflate": "apk",
}
# Input form -> the read_permissions span it belongs to in a traced run.
FORM_SPAN = {
    "permlist": "permlist",
    "xml": "xml",
    "axml16": "axml",
    "axml8": "axml",
    "apk_stored": "apk",
    "apk_deflate": "apk",
}

KIB = 1024
MIB = 1024 * KIB
# APK payload size tiers: (share of the APKs, smallest, largest).  Most
# APKs are small, so the zip directory walk and the manifest parse stay
# visible in read_permissions.apk; the 1-4 MiB tail exposes open_apk's
# whole-file read, whose cost grows with the file while the manifest does
# not.  APKs in the wild are often several MB; a corpus of such files
# would be read-bound alone and several GB per round, so this ladder
# understates the share of that read in a real corpus.
APK_TIERS = ((0.80, 0, 64 * KIB), (0.16, 64 * KIB, MIB), (0.04, MIB, 4 * MIB))


@dataclass(frozen=True)
class App:
    path: str  # relative to the corpus directory
    label: str
    form: str
    permissions: tuple[str, ...]
    size: int  # bytes on disk

    @property
    def kind(self) -> str:
        return FORM_KIND[self.form]


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, *stream))))


def form_counts(total: int) -> dict[str, int]:
    """30% permission lists, 20% plaintext, 30% AXML, 20% APKs.

    Each share is chosen for the layer it exercises: permission lists are
    the cheapest read, so the per-file cost of dataset and encoder shows;
    plaintext manifests drive parse_plain_manifest; AXML is split evenly
    between the UTF-16 and UTF-8 string-pool decoders of parse_axml; APKs
    are split evenly between stored and DEFLATE manifests, and at 20% of
    the paper's 5450 apps the ladder's top tier still holds 44 APKs.
    """
    shares = {
        "permlist": 0.30, "xml": 0.20, "axml16": 0.15, "axml8": 0.15,
        "apk_stored": 0.10, "apk_deflate": 0.10,
    }
    counts = {form: int(total * share) for form, share in shares.items()}
    counts["permlist"] += total - sum(counts.values())
    return counts


def apk_payload_sizes(n: int) -> list[int]:
    """A fixed ladder of payload sizes, evenly spaced within each tier."""
    sizes: list[int] = []
    for i, (share, lo, hi) in enumerate(APK_TIERS):
        count = n - len(sizes) if i == len(APK_TIERS) - 1 else round(n * share)
        sizes += [int(lo + (hi - lo) * (j + 0.5) / count) for j in range(count)]
    return sizes


def draw_permissions(rng: np.random.Generator, label: str) -> tuple[str, ...]:
    signature = BOTNET_SIGNATURE if label == "botnet" else BENIGN_SIGNATURE
    fixed = set(COMMON) | set(BOTNET_SIGNATURE) | set(BENIGN_SIGNATURE)
    noise = [p for p in UNIVERSE if p not in fixed]
    chosen = [p for p in COMMON if rng.random() < COMMON_PROB]
    chosen += [p for p in signature if rng.random() < SIGNATURE_PROB]
    chosen += [p for p in noise if rng.random() < NOISE_PROB]
    if not chosen:
        chosen = [COMMON[0]]
    return tuple(sorted(chosen))


# --- binary XML (AXML) encoder -------------------------------------------------

_CHUNK_XML = 0x0003
_CHUNK_POOL = 0x0001
_CHUNK_RESMAP = 0x0180
_CHUNK_NS_START = 0x0100
_CHUNK_NS_END = 0x0101
_CHUNK_START = 0x0102
_CHUNK_END = 0x0103
_POOL_UTF8 = 0x100
_NONE = 0xFFFFFFFF
_T_STRING, _T_INT_DEC, _T_BOOL = 0x03, 0x10, 0x12


def _utf8_len(n: int) -> bytes:
    return bytes([n]) if n < 0x80 else bytes([0x80 | (n >> 8), n & 0xFF])


def _pool_chunk(strings: list[str], utf8: bool) -> bytes:
    data = bytearray()
    offsets = []
    for s in strings:
        offsets.append(len(data))
        if utf8:
            raw = s.encode("utf-8")
            data += _utf8_len(len(s)) + _utf8_len(len(raw)) + raw + b"\0"
        else:
            raw = s.encode("utf-16-le")
            data += struct.pack("<H", len(raw) // 2) + raw + b"\0\0"
    data += b"\0" * (-len(data) % 4)
    header = 28
    strings_start = header + 4 * len(strings)
    size = strings_start + len(data)
    flags = _POOL_UTF8 if utf8 else 0
    return (
        struct.pack("<HHIIIIII", _CHUNK_POOL, header, size, len(strings), 0, flags,
                    strings_start, 0)
        + struct.pack(f"<{len(strings)}I", *offsets)
        + bytes(data)
    )


def encode_axml(root, namespaces: dict[str, str], utf8: bool) -> bytes:
    """root = (name, [(uri | None, attr, value)], [children]); value is str, int or bool."""
    strings: list[str] = []
    index: dict[str, int] = {}

    def ref(s: str) -> int:
        if s not in index:
            index[s] = len(strings)
            strings.append(s)
        return index[s]

    body = bytearray()

    def element(node) -> None:
        name, attrs, children = node
        count = len(attrs)
        body.extend(struct.pack("<HHIII", _CHUNK_START, 16, 36 + 20 * count, 1, _NONE))
        body.extend(struct.pack("<IIHHHHHH", _NONE, ref(name), 20, 20, count, 0, 0, 0))
        for uri, attr, value in attrs:
            ns = ref(uri) if uri else _NONE
            if isinstance(value, bool):
                raw, vtype, data = _NONE, _T_BOOL, _NONE if value else 0
            elif isinstance(value, int):
                raw, vtype, data = _NONE, _T_INT_DEC, value & 0xFFFFFFFF
            else:
                raw = data = ref(value)
                vtype = _T_STRING
            body.extend(struct.pack("<IIIHBBI", ns, ref(attr), raw, 8, 0, vtype, data))
        for child in children:
            element(child)
        body.extend(struct.pack("<HHIIIII", _CHUNK_END, 16, 24, 1, _NONE, _NONE, ref(name)))

    ns_refs = [(ref(prefix), ref(uri)) for prefix, uri in namespaces.items()]
    element(root)
    starts = b"".join(
        struct.pack("<HHIIIII", _CHUNK_NS_START, 16, 24, 1, _NONE, p, u) for p, u in ns_refs
    )
    ends = b"".join(
        struct.pack("<HHIIIII", _CHUNK_NS_END, 16, 24, 1, _NONE, p, u)
        for p, u in reversed(ns_refs)
    )
    resmap = struct.pack("<HHI3I", _CHUNK_RESMAP, 8, 20, 0x01010003, 0x0101021B, 0x0101020C)
    rest = resmap + starts + bytes(body) + ends
    pool = _pool_chunk(strings, utf8)
    return struct.pack("<HHI", _CHUNK_XML, 8, 8 + len(pool) + len(rest)) + pool + rest


# --- manifest trees ------------------------------------------------------------

def manifest_tree(rng: np.random.Generator, package: str, perms: tuple[str, ...]):
    """A manifest with permission requests among elements that are not requests."""
    a = ANDROID_URI
    order = rng.permutation(len(perms))
    requests = []
    for i in order:
        element = "uses-permission-sdk-23" if rng.random() < 0.1 else "uses-permission"
        attrs = [(a, "name", perms[i])]
        if rng.random() < 0.1:
            attrs.append((a, "maxSdkVersion", int(rng.integers(18, 29))))
        if rng.random() < 0.1:
            attrs.append((TOOLS_URI, "ignore", "ProtectedPermissions"))
        requests.append((element, attrs, []))
    others = [
        ("uses-sdk", [(a, "minSdkVersion", int(rng.integers(9, 21))),
                      (a, "targetSdkVersion", int(rng.integers(21, 30)))], []),
        ("uses-feature", [(a, "name", "android.hardware.camera"), (a, "required", False)], []),
        ("permission", [(a, "name", f"{package}.permission.C2D_MESSAGE"),
                        (a, "protectionLevel", "signature")], []),
    ]
    main = ("intent-filter", [], [
        ("action", [(a, "name", "android.intent.action.MAIN")], []),
        ("category", [(a, "name", "android.intent.category.LAUNCHER")], []),
    ])
    application = ("application", [(a, "label", "@string/app_name"), (a, "allowBackup", True)], [
        ("activity", [(a, "name", ".MainActivity")], [main]),
        ("service", [(a, "name", ".SyncService"), (a, "exported", False)], []),
        ("receiver", [(a, "name", ".BootReceiver")], [
            ("intent-filter", [], [
                ("action", [(a, "name", "android.intent.action.BOOT_COMPLETED")], [])
            ])
        ]),
    ])
    children = others[:1] + requests + others[1:] + [application]
    attrs = [("", "package", package), (a, "versionCode", int(rng.integers(1, 500))),
             (a, "versionName", f"1.{int(rng.integers(0, 40))}")]
    return ("manifest", attrs, children)


def _xml_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def render_plain_xml(root) -> str:
    prefixes = {ANDROID_URI: "android", TOOLS_URI: "tools"}
    lines = ['<?xml version="1.0" encoding="utf-8"?>', "<!-- generated manifest -->"]

    def render(node, depth: int, top: bool) -> None:
        name, attrs, children = node
        parts = [name]
        if top:
            parts += [f'xmlns:{p}="{u}"' for u, p in prefixes.items()]
        for uri, attr, value in attrs:
            qualified = f"{prefixes[uri]}:{attr}" if uri else attr
            parts.append(f'{qualified}="{_xml_value(value)}"')
        pad = "    " * depth
        if children:
            lines.append(f"{pad}<{' '.join(parts)}>")
            for child in children:
                render(child, depth + 1, False)
            lines.append(f"{pad}</{name}>")
        else:
            lines.append(f"{pad}<{' '.join(parts)} />")

    render(root, 0, True)
    return "\n".join(lines) + "\n"


def render_permission_list(rng: np.random.Generator, perms: tuple[str, ...]) -> str:
    lines = ["# requested permissions"]
    for i in rng.permutation(len(perms)):
        lines.append(perms[i])
        if rng.random() < 0.05:
            lines.append("")
    return "\n".join(lines) + "\n"


def write_apk(path: Path, manifest: bytes, deflate: bool, payload: bytes, manifest_first: bool):
    meta = b"Manifest-Version: 1.0\r\nCreated-By: perfbench\r\n\r\n"
    entries = [
        ("AndroidManifest.xml", manifest, zipfile.ZIP_DEFLATED if deflate else zipfile.ZIP_STORED),
        ("classes.dex", payload, zipfile.ZIP_STORED),
        ("resources.arsc", payload[:512], zipfile.ZIP_STORED),
        ("META-INF/MANIFEST.MF", meta, zipfile.ZIP_DEFLATED),
    ]
    if not manifest_first:
        entries = entries[1:3] + entries[:1] + entries[3:]
    with zipfile.ZipFile(path, "w") as zf:
        for name, data, method in entries:
            info = zipfile.ZipInfo(name, date_time=(2019, 11, 27, 0, 0, 0))
            info.compress_type = method
            zf.writestr(info, data)


# --- corpora -------------------------------------------------------------------

def write_corpus(
    out_dir: Path, seed: int, stream: int, n_botnet: int, n_benign: int,
    forms: dict[str, int] | None = None, apk_size: int | None = None,
) -> list[App]:
    """Write the apps, data.csv and truth.json; returns the apps in CSV order.

    forms maps input form -> count and must sum to the number of apps;
    None writes permission lists only.  apk_size gives every APK that
    payload size instead of the APK_TIERS ladder.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    total = n_botnet + n_benign
    forms = forms or {"permlist": total}
    if sum(forms.values()) != total:
        raise ValueError("form counts must add up to the number of apps")
    rng = rng_for(seed, stream)
    labels = ["botnet"] * n_botnet + ["benign"] * n_benign
    labels = [labels[i] for i in rng.permutation(total)]
    form_list = [form for form, count in forms.items() for _ in range(count)]
    form_list = [form_list[i] for i in rng.permutation(total)]
    n_apk = sum(1 for f in form_list if f.startswith("apk"))
    sizes = apk_payload_sizes(n_apk) if apk_size is None else [apk_size] * n_apk
    sizes = [sizes[i] for i in rng.permutation(n_apk)]
    block = rng.bytes(max(sizes, default=0) + 1024)

    apps: list[App] = []
    for i, (label, form) in enumerate(zip(labels, form_list)):
        perms = draw_permissions(rng, label)
        package = f"com.example.app{seed % 1000:03d}.a{i:05d}"
        ext = {"permlist": "txt", "xml": "xml"}.get(form, "apk" if form.startswith("apk") else "bin")
        name = f"app{i:05d}.{ext}"
        path = out_dir / name
        if form == "permlist":
            path.write_text(render_permission_list(rng, perms), encoding="utf-8")
        else:
            tree = manifest_tree(rng, package, perms)
            if form == "xml":
                path.write_text(render_plain_xml(tree), encoding="utf-8")
            else:
                namespaces = {"android": ANDROID_URI, "tools": TOOLS_URI}
                utf8 = form == "axml8" or (form.startswith("apk") and rng.random() < 0.5)
                blob = encode_axml(tree, namespaces, utf8)
                if form.startswith("axml"):
                    path.write_bytes(blob)
                else:
                    size = sizes.pop()
                    start = int(rng.integers(0, len(block) - size))
                    write_apk(path, blob, form == "apk_deflate", block[start : start + size],
                              manifest_first=bool(rng.random() < 0.5))
        apps.append(App(name, label, form, perms, path.stat().st_size))

    with open(out_dir / "data.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["path", "label", "kind"])
        for app in apps:
            writer.writerow([app.path, app.label, app.kind])
    (out_dir / "truth.json").write_text(json.dumps([asdict(a) for a in apps]), encoding="utf-8")
    return apps


def load_truth(corpus_dir: Path) -> list[App]:
    rows = json.loads((corpus_dir / "truth.json").read_text(encoding="utf-8"))
    return [App(r["path"], r["label"], r["form"], tuple(r["permissions"]), r["size"]) for r in rows]
