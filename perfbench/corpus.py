"""Seeded generator of KDD-format corpora for the benchmark.

Two shapes are written, both as plain KDD connection-record text so that the
program under test receives only a file and its loader is measured:

* ``kdd99`` -- KDD99-10-shaped: the 23 raw labels at the published counts of
  ``kddcup.data_10_percent`` (494,021 records), scaled to a given size with
  every label kept; 3 protocols, services from a list of 66, 11 flags, a
  large share of exact duplicates (Tavallaee et al., CISDA 2009) and bursts
  with abrupt class-mix switches.  Written gzipped, as the published file is.
* ``nsl`` -- NSL-KDD-shaped: the KDDTrain+ label counts (125,973 records,
  normal 67,343 / dos 45,927 / probe 11,656 / r2l 995 / u2r 52), scaled
  alike; no duplicate records, shuffled, labels without the trailing dot and
  a 43rd difficulty column.

Only the label counts and the category table are published figures.  Every
other number below -- what each label looks like (its protocols, services,
flags and numeric ranges), the share of repeated records per label, the
burst lengths, the normal background and the mimic records -- is an
assumption of this benchmark, chosen to give the learners KDD-like work and
to keep that work steady from seed to seed.  None of them was measured on
the published files, which are not part of the repository.  The seed only
draws records from these fixed tables, so corpora of different seeds cost
the program about the same work.  This module imports nothing from the
program it feeds.
"""

from __future__ import annotations

import gzip
import hashlib
import os
from pathlib import Path

import numpy as np

# ---------------------------------------------------------------------------
# published label counts

KDD99_10_COUNTS = {
    "smurf": 280_790, "neptune": 107_201, "normal": 97_278, "back": 2_203,
    "satan": 1_589, "ipsweep": 1_247, "portsweep": 1_040, "warezclient": 1_020,
    "teardrop": 979, "pod": 264, "nmap": 231, "guess_passwd": 53,
    "buffer_overflow": 30, "land": 21, "warezmaster": 20, "imap": 12,
    "rootkit": 10, "loadmodule": 9, "ftp_write": 8, "multihop": 7, "phf": 4,
    "perl": 3, "spy": 2,
}

KDDTRAIN_PLUS_COUNTS = {
    "normal": 67_343, "neptune": 41_214, "satan": 3_633, "ipsweep": 3_599,
    "portsweep": 2_931, "smurf": 2_646, "nmap": 1_493, "back": 956,
    "teardrop": 892, "warezclient": 890, "pod": 201, "guess_passwd": 53,
    "buffer_overflow": 30, "warezmaster": 20, "land": 18, "imap": 11,
    "rootkit": 10, "loadmodule": 9, "ftp_write": 8, "multihop": 7, "phf": 4,
    "perl": 3, "spy": 2,
}

# The paper's five-category table (the v1 relabeling), written out here so
# the checks do not take it from the program they check.
CATEGORY = {
    "normal": "normal",
    "back": "dos", "land": "dos", "neptune": "dos", "pod": "dos",
    "smurf": "dos", "teardrop": "dos",
    "ipsweep": "probe", "nmap": "probe", "portsweep": "probe", "satan": "probe",
    "ftp_write": "r2l", "guess_passwd": "r2l", "imap": "r2l", "multihop": "r2l",
    "phf": "r2l", "spy": "r2l", "warezclient": "r2l", "warezmaster": "r2l",
    "buffer_overflow": "u2r", "loadmodule": "u2r", "perl": "u2r",
    "rootkit": "u2r",
}

# ---------------------------------------------------------------------------
# record layout

COLUMNS = (
    "duration", "protocol_type", "service", "flag", "src_bytes", "dst_bytes",
    "land", "wrong_fragment", "urgent", "hot", "num_failed_logins",
    "logged_in", "num_compromised", "root_shell", "su_attempted", "num_root",
    "num_file_creations", "num_shells", "num_access_files",
    "num_outbound_cmds", "is_host_login", "is_guest_login", "count",
    "srv_count", "serror_rate", "srv_serror_rate", "rerror_rate",
    "srv_rerror_rate", "same_srv_rate", "diff_srv_rate", "srv_diff_host_rate",
    "dst_host_count", "dst_host_srv_count", "dst_host_same_srv_rate",
    "dst_host_diff_srv_rate", "dst_host_same_src_port_rate",
    "dst_host_srv_diff_host_rate", "dst_host_serror_rate",
    "dst_host_srv_serror_rate", "dst_host_rerror_rate",
    "dst_host_srv_rerror_rate",
)
RATE_COLUMNS = frozenset(c for c in COLUMNS if c.endswith("_rate"))

SERVICES = {
    "tcp": (
        "http", "smtp", "ftp", "ftp_data", "telnet", "finger", "auth", "pop_3",
        "imap4", "domain", "private", "other", "ssh", "login", "shell", "exec",
        "klogin", "kshell", "sunrpc", "uucp", "uucp_path", "nntp",
        "netbios_ns", "netbios_dgm", "netbios_ssn", "whois", "time",
        "daytime", "echo", "discard", "systat", "netstat", "hostnames",
        "csnet_ns", "ctf", "courier", "bgp", "iso_tsap", "gopher", "http_443",
        "ldap", "link", "mtp", "name", "nnsp", "pop_2", "printer",
        "remote_job", "rje", "sql_net", "supdup", "vmnet", "Z39_50", "X11",
        "IRC", "efs", "pm_dump"),
    "udp": ("domain_u", "private", "ntp_u", "tftp_u", "other"),
    "icmp": ("ecr_i", "eco_i", "urp_i", "tim_i", "red_i", "urh_i"),
}

# Numeric column laws: ("c", v) constant; ("u", lo, hi) uniform integer;
# ("ln", mu, sigma) rounded lognormal; ("r", lo, hi) rate with two decimals;
# ("ch", values) uniform choice; ("z", p, law) zero with probability p.
_NORMAL = {
    "proto": {"tcp": 0.78, "udp": 0.18, "icmp": 0.04},
    "svc": {"tcp": {"http": 0.55, "smtp": 0.2, "ftp_data": 0.1, "ftp": 0.03,
                    "*": 0.12},
            "udp": {"domain_u": 0.7, "private": 0.15, "ntp_u": 0.1,
                    "other": 0.05},
            "icmp": {"eco_i": 0.5, "ecr_i": 0.3, "urp_i": 0.2}},
    "flag": {"SF": 0.93, "REJ": 0.02, "S0": 0.01, "RSTO": 0.01, "S1": 0.01,
             "RSTR": 0.01, "S2": 0.005, "S3": 0.004, "OTH": 0.001},
    "duration": ("z", 0.9, ("ln", 3.0, 2.0)),
    "src_bytes": ("ln", 5.4, 1.1), "dst_bytes": ("z", 0.15, ("ln", 7.6, 1.6)),
    "logged_in": 0.75, "hot": ("z", 0.95, ("u", 1, 6)),
    "count": ("u", 1, 25), "srv_count": ("u", 1, 40),
    "rerror_rate": ("z", 0.96, ("r", 0.1, 1)),
    "same_srv_rate": ("r", 0.85, 1), "diff_srv_rate": ("z", 0.8, ("r", 0, 0.2)),
    "srv_diff_host_rate": ("z", 0.6, ("r", 0, 0.4)),
    "dst_host_count": ("u", 1, 255), "dst_host_srv_count": ("u", 20, 255),
    "dst_host_same_srv_rate": ("r", 0.6, 1),
    "dst_host_diff_srv_rate": ("r", 0, 0.06),
    "dst_host_same_src_port_rate": ("r", 0, 0.15),
    "dst_host_srv_diff_host_rate": ("r", 0, 0.08),
    "dst_host_rerror_rate": ("z", 0.9, ("r", 0, 0.3)),
}

_R2L = {  # shared shape of the rare login/file attacks
    "proto": {"tcp": 1.0},
    "svc": {"tcp": {"telnet": 0.4, "ftp_data": 0.3, "ftp": 0.2, "login": 0.1}},
    "flag": {"SF": 0.9, "RSTO": 0.1},
    "duration": ("z", 0.4, ("ln", 4.5, 1.5)),
    "src_bytes": ("ln", 6.5, 1.5), "dst_bytes": ("ln", 7.5, 1.5),
    "logged_in": 0.95, "hot": ("u", 1, 8), "num_file_creations": ("u", 0, 3),
    "count": ("u", 1, 3), "srv_count": ("u", 1, 3), "same_srv_rate": ("c", 1),
    "dst_host_count": ("u", 1, 60), "dst_host_srv_count": ("u", 1, 20),
    "dst_host_same_srv_rate": ("r", 0.1, 1),
    "dst_host_same_src_port_rate": ("r", 0, 1),
}

LABEL_LAWS = {
    "normal": _NORMAL,
    "smurf": {
        "proto": {"icmp": 1.0}, "svc": {"icmp": {"ecr_i": 1.0}},
        "flag": {"SF": 1.0}, "src_bytes": ("ch", (1032, 520, 1032)),
        "count": ("u", 480, 511), "srv_count": ("u", 480, 511),
        "same_srv_rate": ("c", 1), "dst_host_count": ("c", 255),
        "dst_host_srv_count": ("u", 230, 255),
        "dst_host_same_srv_rate": ("c", 1),
        "dst_host_same_src_port_rate": ("r", 0.95, 1),
    },
    "neptune": {
        "proto": {"tcp": 1.0},
        "svc": {"tcp": {"private": 0.55, "*": 0.45}},
        "flag": {"S0": 0.85, "REJ": 0.13, "RSTO": 0.02},
        "count": ("u", 80, 300), "srv_count": ("u", 1, 30),
        "serror_rate": ("r", 0.9, 1), "srv_serror_rate": ("r", 0.9, 1),
        "same_srv_rate": ("r", 0, 0.12), "diff_srv_rate": ("r", 0.04, 0.08),
        "dst_host_count": ("c", 255), "dst_host_srv_count": ("u", 1, 30),
        "dst_host_same_srv_rate": ("r", 0, 0.12),
        "dst_host_diff_srv_rate": ("r", 0.04, 0.08),
        "dst_host_serror_rate": ("r", 0.9, 1),
        "dst_host_srv_serror_rate": ("r", 0.9, 1),
    },
    "back": {
        "proto": {"tcp": 1.0}, "svc": {"tcp": {"http": 1.0}},
        "flag": {"SF": 0.9, "RSTR": 0.1}, "src_bytes": ("ch", (54540,)),
        "dst_bytes": ("ch", (8314, 7300)), "hot": ("c", 2),
        "num_compromised": ("c", 1), "logged_in": 1.0,
        "count": ("u", 1, 20), "srv_count": ("u", 1, 20),
        "same_srv_rate": ("c", 1), "dst_host_count": ("u", 1, 255),
        "dst_host_srv_count": ("u", 1, 255),
        "dst_host_same_srv_rate": ("c", 1),
        "dst_host_same_src_port_rate": ("r", 0, 0.05),
    },
    "teardrop": {
        "proto": {"udp": 1.0}, "svc": {"udp": {"private": 1.0}},
        "flag": {"SF": 1.0}, "src_bytes": ("c", 28), "wrong_fragment": ("c", 3),
        "count": ("u", 1, 120), "srv_count": ("u", 1, 120),
        "same_srv_rate": ("c", 1), "dst_host_count": ("u", 1, 255),
        "dst_host_srv_count": ("u", 1, 255),
        "dst_host_same_srv_rate": ("r", 0.5, 1),
    },
    "pod": {
        "proto": {"icmp": 1.0}, "svc": {"icmp": {"ecr_i": 0.9, "tim_i": 0.1}},
        "flag": {"SF": 1.0}, "src_bytes": ("c", 1480),
        "wrong_fragment": ("c", 1), "count": ("u", 1, 6),
        "srv_count": ("u", 1, 6), "same_srv_rate": ("c", 1),
        "dst_host_count": ("u", 1, 255), "dst_host_srv_count": ("u", 1, 255),
        "dst_host_same_srv_rate": ("c", 1),
        "dst_host_same_src_port_rate": ("r", 0.5, 1),
    },
    "land": {
        "proto": {"tcp": 1.0}, "svc": {"tcp": {"*": 1.0}},
        "flag": {"S0": 0.9, "RSTOS0": 0.1}, "land": 1.0,
        "count": ("u", 1, 2), "srv_count": ("u", 1, 2),
        "serror_rate": ("c", 1), "same_srv_rate": ("c", 1),
        "dst_host_count": ("u", 1, 255), "dst_host_srv_count": ("u", 1, 10),
        "dst_host_same_src_port_rate": ("c", 1),
    },
    "satan": {
        "proto": {"tcp": 0.9, "udp": 0.06, "icmp": 0.04},
        "svc": {"tcp": {"*": 1.0}, "udp": {"private": 0.6, "other": 0.4},
                "icmp": {"urp_i": 0.5, "eco_i": 0.5}},
        "flag": {"REJ": 0.5, "S0": 0.15, "SF": 0.2, "RSTO": 0.1, "SH": 0.05},
        "count": ("u", 1, 30), "srv_count": ("u", 1, 10),
        "rerror_rate": ("r", 0.4, 1), "srv_rerror_rate": ("r", 0.4, 1),
        "same_srv_rate": ("r", 0, 0.3), "diff_srv_rate": ("r", 0.5, 1),
        "dst_host_count": ("u", 150, 255), "dst_host_srv_count": ("u", 1, 15),
        "dst_host_same_srv_rate": ("r", 0, 0.1),
        "dst_host_diff_srv_rate": ("r", 0.5, 1),
        "dst_host_same_src_port_rate": ("r", 0, 1),
        "dst_host_rerror_rate": ("r", 0.5, 1),
        "dst_host_srv_rerror_rate": ("r", 0.5, 1),
    },
    "ipsweep": {
        "proto": {"icmp": 0.93, "tcp": 0.07},
        "svc": {"icmp": {"eco_i": 0.9, "ecr_i": 0.1}, "tcp": {"*": 1.0}},
        "flag": {"SF": 0.95, "RSTO": 0.05}, "src_bytes": ("ch", (8, 18, 20)),
        "count": ("u", 1, 5), "srv_count": ("u", 1, 40),
        "same_srv_rate": ("c", 1), "srv_diff_host_rate": ("r", 0.5, 1),
        "dst_host_count": ("u", 1, 80), "dst_host_srv_count": ("u", 1, 80),
        "dst_host_same_srv_rate": ("c", 1),
        "dst_host_same_src_port_rate": ("r", 0.8, 1),
        "dst_host_srv_diff_host_rate": ("r", 0.3, 1),
    },
    "portsweep": {
        "proto": {"tcp": 0.97, "icmp": 0.03},
        "svc": {"tcp": {"private": 0.3, "*": 0.7}, "icmp": {"eco_i": 1.0}},
        "flag": {"RSTR": 0.6, "REJ": 0.2, "SF": 0.15, "RSTOS0": 0.05},
        "duration": ("z", 0.7, ("u", 1000, 42000)),
        "count": ("u", 1, 3), "srv_count": ("u", 1, 3),
        "rerror_rate": ("r", 0.5, 1), "srv_rerror_rate": ("r", 0.5, 1),
        "same_srv_rate": ("r", 0.5, 1), "srv_diff_host_rate": ("r", 0, 1),
        "dst_host_count": ("u", 1, 255), "dst_host_srv_count": ("u", 1, 3),
        "dst_host_same_srv_rate": ("r", 0, 0.1),
        "dst_host_diff_srv_rate": ("r", 0.4, 1),
        "dst_host_same_src_port_rate": ("r", 0.9, 1),
        "dst_host_rerror_rate": ("r", 0.3, 1),
    },
    "nmap": {
        "proto": {"tcp": 0.5, "icmp": 0.3, "udp": 0.2},
        "svc": {"tcp": {"*": 1.0}, "udp": {"private": 1.0},
                "icmp": {"eco_i": 0.6, "urp_i": 0.4}},
        "flag": {"SF": 0.5, "S0": 0.2, "REJ": 0.2, "RSTO": 0.1},
        "count": ("u", 1, 4), "srv_count": ("u", 1, 4),
        "same_srv_rate": ("r", 0.5, 1), "dst_host_count": ("u", 1, 255),
        "dst_host_srv_count": ("u", 1, 5),
        "dst_host_diff_srv_rate": ("r", 0.3, 1),
        "dst_host_same_src_port_rate": ("c", 1),
    },
    "warezclient": {
        "proto": {"tcp": 1.0}, "svc": {"tcp": {"ftp_data": 0.6, "ftp": 0.4}},
        "flag": {"SF": 1.0}, "duration": ("ln", 6.0, 1.5),
        "src_bytes": ("ln", 10.0, 1.5), "hot": ("u", 1, 28),
        "logged_in": 1.0, "is_guest_login": 0.5,
        "count": ("u", 1, 3), "srv_count": ("u", 1, 3),
        "same_srv_rate": ("c", 1), "dst_host_count": ("u", 1, 100),
        "dst_host_srv_count": ("u", 1, 100),
        "dst_host_same_srv_rate": ("r", 0.2, 1),
        "dst_host_same_src_port_rate": ("r", 0, 0.5),
    },
    "guess_passwd": {
        "proto": {"tcp": 1.0}, "svc": {"tcp": {"telnet": 0.95, "pop_3": 0.05}},
        "flag": {"RSTO": 0.85, "SF": 0.15}, "duration": ("u", 1, 5),
        "src_bytes": ("u", 118, 130), "dst_bytes": ("u", 170, 190),
        "num_failed_logins": ("c", 1), "count": ("u", 1, 2),
        "srv_count": ("u", 1, 2), "same_srv_rate": ("c", 1),
        "dst_host_count": ("u", 1, 60), "dst_host_srv_count": ("u", 1, 60),
        "dst_host_same_srv_rate": ("c", 1),
        "dst_host_same_src_port_rate": ("r", 0, 0.1),
    },
    "warezmaster": dict(_R2L, svc={"tcp": {"ftp": 1.0}},
                        duration=("ln", 8.0, 1.0), src_bytes=("ln", 5.0, 1.0),
                        dst_bytes=("ln", 13.0, 1.0), is_guest_login=0.9),
    "imap": dict(_R2L, svc={"tcp": {"imap4": 1.0}},
                 flag={"SH": 0.4, "S0": 0.2, "RSTO": 0.2, "SF": 0.2},
                 logged_in=0.3),
    "ftp_write": dict(_R2L, svc={"tcp": {"ftp": 0.5, "ftp_data": 0.5}},
                      num_file_creations=("u", 1, 4)),
    "multihop": dict(_R2L, root_shell=("ch", (0, 1))),
    "phf": dict(_R2L, svc={"tcp": {"http": 1.0}}, num_access_files=("c", 1)),
    "spy": dict(_R2L, duration=("u", 10000, 30000), root_shell=("c", 1)),
    "buffer_overflow": dict(_R2L, root_shell=("ch", (0, 1, 1)),
                            num_root=("u", 0, 4), num_shells=("u", 0, 2)),
    "rootkit": dict(_R2L, root_shell=("ch", (0, 1)), num_root=("u", 0, 2)),
    "loadmodule": dict(_R2L, root_shell=("ch", (0, 1)),
                       num_file_creations=("u", 1, 4)),
    "perl": dict(_R2L, root_shell=("c", 1), num_root=("u", 1, 3)),
}

# Assumed, not measured (see the module docstring):
# share of distinct records per label in the KDD99-10 shape, the rest exact
# repeats; smurf and neptune repeat most, and about 70 % of all rows come
# out as repeats, near the 75-78 % Tavallaee et al. (CISDA 2009) report for
# the full KDD99 train and test sets.
DISTINCT_SHARE = {"smurf": 0.011, "neptune": 0.48, "normal": 0.9,
                  "back": 0.45, "teardrop": 0.95, "pod": 0.8, "land": 0.95}
# mean burst length per label at 494,021 rows; a scaled stream scales its
# bursts alike
BURST_MEAN = {"smurf": 12_000, "neptune": 6_000, "normal": 2_500}
# share of the normal records scattered across the stream as background
NORMAL_BACKGROUND = 0.15
# share of each label's records drawn from another label's law, and the
# weight of each law when one is borrowed: normal traffic mostly mimics the
# two flooding attacks, and every attack mimics normal traffic.  Without
# them Hoeffding-tree leaves went pure and the cost of `stream-ht` varied
# by a factor of two between seeds.
MIMIC_SHARE = 0.02
MIMIC_WEIGHT = {"normal": 10.0, "smurf": 3.0, "neptune": 3.0, "satan": 1.0,
                "portsweep": 1.0, "ipsweep": 1.0, "back": 1.0}


def _law(rng, law, n):
    kind = law[0]
    if kind == "c":
        return np.full(n, float(law[1]))
    if kind == "u":
        return rng.integers(law[1], law[2] + 1, n).astype(np.float64)
    if kind == "ln":
        return np.round(rng.lognormal(law[1], law[2], n))
    if kind == "r":
        return np.round(rng.uniform(law[1], law[2], n), 2)
    if kind == "ch":
        return np.asarray(law[1], dtype=np.float64)[
            rng.integers(0, len(law[1]), n)]
    if kind == "z":
        out = _law(rng, law[2], n)
        out[rng.random(n) < law[1]] = 0.0
        return out
    raise ValueError(f"unknown law {law!r}")


def _pick(rng, weights: dict, n: int, universe: tuple = ()):
    """Draw n symbols from a weight table; '*' spreads over `universe`."""
    symbols, probs = [], []
    for sym, w in weights.items():
        if sym == "*":
            symbols.extend(universe)
            probs.extend([w / len(universe)] * len(universe))
        else:
            symbols.append(sym)
            probs.append(w)
    probs = np.asarray(probs) / sum(probs)
    return np.asarray(symbols, dtype=object)[
        rng.choice(len(symbols), n, p=probs)]


def _records(rng, label: str, n: int) -> list[str]:
    """n freshly drawn feature strings (41 fields, no label) of one label.

    A share MIMIC_SHARE of them follows another label's law -- an attack
    that looks like normal traffic, or normal traffic that looks like an
    attack -- so that no region of the feature space stays pure for long.
    """
    others = [lab for lab in MIMIC_WEIGHT if lab != label]
    weights = np.array([MIMIC_WEIGHT[lab] for lab in others], dtype=float)
    laws = np.full(n, label, dtype=object)
    mimic = rng.random(n) < MIMIC_SHARE
    laws[mimic] = np.asarray(others, dtype=object)[
        rng.choice(len(others), int(mimic.sum()), p=weights / weights.sum())]
    out = []
    for law in sorted(set(laws.tolist())):
        out += _law_records(rng, law, int((laws == law).sum()))
    return [out[i] for i in rng.permutation(len(out))]


def _law_records(rng, label: str, n: int) -> list[str]:
    """n feature strings drawn from one label's law."""
    law = LABEL_LAWS[label]
    protos = list(law["proto"])
    proto = _pick(rng, law["proto"], n)
    service = np.empty(n, dtype=object)
    for p in protos:
        sel = proto == p
        service[sel] = _pick(rng, law["svc"][p], int(sel.sum()), SERVICES[p])
    cols = []
    for name in COLUMNS:
        if name == "protocol_type":
            cols.append(proto)
        elif name == "service":
            cols.append(service)
        elif name == "flag":
            cols.append(_pick(rng, law["flag"], n))
        elif name in ("land", "logged_in", "is_host_login", "is_guest_login"):
            p = law.get(name, 0.0)
            cols.append(np.where(rng.random(n) < p, "1", "0"))
        else:
            v = _law(rng, law.get(name, ("c", 0)), n)
            uniq, inv = np.unique(v, return_inverse=True)
            fmt = "{:.2f}" if name in RATE_COLUMNS else "{:.0f}"
            text = np.array([fmt.format(x) for x in uniq], dtype=object)
            cols.append(text[inv])
    return [",".join(fields) for fields in zip(*(c.tolist() for c in cols))]


def _distinct(rng, label: str, n: int) -> list[str]:
    """n pairwise distinct feature strings of one label."""
    seen: dict[str, None] = {}
    while len(seen) < n:
        seen.update(dict.fromkeys(
            _records(rng, label, (n - len(seen)) * 5 // 4 + 16)))
    return list(seen)[:n]


def kdd99_rows(seed: int, counts: dict[str, int]) -> list[tuple[str, str]]:
    """(features, label) rows of a KDD99-10-shaped stream, in stream order."""
    rng = np.random.default_rng([seed, 99])
    labels = sorted(counts)
    # stream order: label bursts in shuffled order, plus scattered normals
    n_bg = int(counts.get("normal", 0) * NORMAL_BACKGROUND)
    scale = sum(counts.values()) / sum(KDD99_10_COUNTS.values())
    bursts = []
    for lab in labels:
        c = counts[lab] - (n_bg if lab == "normal" else 0)
        k = max(1, round(c / (BURST_MEAN.get(lab, 400) * scale)))
        cuts = np.sort(rng.choice(np.arange(1, c), k - 1, replace=False)) \
            if k > 1 else np.zeros(0, dtype=int)
        sizes = np.diff(np.concatenate(([0], cuts, [c])))
        bursts.extend((lab, int(s)) for s in sizes)
    order = rng.permutation(len(bursts))
    seq = [bursts[i][0] for i in order for _ in range(bursts[i][1])]
    total = len(seq) + n_bg
    is_bg = np.zeros(total, dtype=bool)
    is_bg[rng.choice(total, n_bg, replace=False)] = True
    stream = np.empty(total, dtype=object)
    stream[is_bg] = "normal"
    stream[~is_bg] = seq
    # records: each label repeats a pool of distinct records, skewed so a
    # few records recur many times
    out = [None] * total
    for lab in labels:
        pos = np.flatnonzero(stream == lab)
        size = max(1, round(len(pos) * DISTINCT_SHARE.get(lab, 0.7)))
        pool = _distinct(rng, lab, size)
        pick = np.minimum((len(pool) * rng.random(len(pos)) ** 2).astype(int),
                          len(pool) - 1)
        pick[: len(pool)] = rng.permutation(len(pool))[: len(pos)]
        rng.shuffle(pick)
        for p, k in zip(pos, pick):
            out[p] = (pool[k], lab)
    return out


def nsl_rows(seed: int, counts: dict[str, int]) -> list[tuple[str, str, int]]:
    """(features, label, difficulty) rows of an NSL-KDD-shaped file."""
    rng = np.random.default_rng([seed, 7])
    rows = []
    taken: set[str] = set()
    for lab in sorted(counts):
        recs = [r for r in _distinct(rng, lab, counts[lab] + 16)
                if r not in taken][: counts[lab]]
        if len(recs) < counts[lab]:
            raise RuntimeError(f"too few distinct {lab} records")
        taken.update(recs)
        lo = 15 if lab == "normal" else 5
        diff = rng.integers(lo, 22, len(recs))
        rows.extend(zip(recs, [lab] * len(recs), diff.tolist()))
    return [rows[i] for i in rng.permutation(len(rows))]


def scaled_counts(counts: dict[str, int], total: int) -> dict[str, int]:
    """Largest-remainder scaling of label counts to `total`, keeping all."""
    n = sum(counts.values())
    exact = {k: v * total / n for k, v in counts.items()}
    base = {k: max(1, int(e)) for k, e in exact.items()}
    short = total - sum(base.values())
    if short < 0:
        raise ValueError(f"{total} rows cannot hold every label")
    for k in sorted(exact, key=lambda k: base[k] - exact[k])[:short]:
        base[k] += 1
    return base


SHAPES = {"kdd99": (KDD99_10_COUNTS, ".data.gz"),
          "nsl": (KDDTRAIN_PLUS_COUNTS, ".txt")}


def _digest() -> str:
    return hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:12]


def corpus(shape: str, seed: int, total: int, cache_dir: Path) -> Path:
    """Path of the `total`-row corpus of a shape and seed, generated if absent.

    The file name carries a digest of this module, so a changed generator
    never reuses a stale file.
    """
    published, suffix = SHAPES[shape]
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"{shape}_{total}_s{seed}_{_digest()}{suffix}"
    if path.exists():
        return path
    counts = scaled_counts(published, total)
    tmp = path.with_name(path.name + f".{os.getpid()}.part")
    if shape == "kdd99":
        text = "".join(f"{f},{lab}.\n" for f, lab in kdd99_rows(seed, counts))
        with gzip.open(tmp, "wt", compresslevel=3) as fh:
            fh.write(text)
    else:
        text = "".join(f"{f},{lab},{d}\n"
                       for f, lab, d in nsl_rows(seed, counts))
        tmp.write_text(text)
    os.replace(tmp, path)
    return path
