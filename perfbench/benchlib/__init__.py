"""Helpers of the hZCCL benchmark: percentiles, span self times, result JSON."""
