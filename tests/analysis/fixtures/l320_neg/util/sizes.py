"""L320 negatives: idiomatic unit handling stays silent."""

from repro.util.units import GiB, MiB


def same_dimension(a_bytes, b_bytes, c_mib, d_mib):
    return a_bytes + b_bytes, c_mib - d_mib


def known_conversion(count_mib):
    total_bytes = count_mib * MiB  # count x multiplier -> bytes
    return total_bytes


def rate_math(moved_bytes, window_s):
    rate = moved_bytes / window_s  # bytes / seconds -> rate
    return rate * window_s  # rate * seconds -> bytes


def bandwidth_division(ship_bytes, path_bandwidth):
    transfer_s = ship_bytes / max(path_bandwidth, 1e-12)
    return transfer_s


def float_scaling(lat_us):
    latency_s = lat_us * 1e-6  # float literal = conversion in progress
    return latency_s


def shift_conversion(n_bytes):
    as_mib = n_bytes >> 20  # shift conversions are exempt
    return as_mib


def clamped(total_bytes, floor):
    # max() with a dimensionless operand must not smear a dimension.
    hot_bytes = max(total_bytes, floor)
    return hot_bytes


def scaled(chunk_bytes, n):
    return chunk_bytes * n + GiB
