"""L320 positives: cross-dimension arithmetic the lattice must catch."""

from repro.util.units import mib


def direct_mix(cap_mib, used_bytes):
    return cap_mib - used_bytes  # MiB-count minus bytes


def compare_mix(limit_bytes, window_s):
    return limit_bytes < window_s  # bytes vs seconds


def across_assignment(buf_bytes, quota_mib):
    size = buf_bytes  # dimension follows the assignment
    return size + quota_mib


def double_conversion(n_bytes):
    return mib(n_bytes)  # already bytes


def bind_mismatch():
    budget_mib = mib(16)  # mib() returns *bytes*
    return budget_mib


def time_mix(elapsed_s, lat_us):
    return elapsed_s + lat_us  # seconds plus microseconds


def rank_mix(total_bytes, n_ranks):
    return total_bytes - n_ranks
