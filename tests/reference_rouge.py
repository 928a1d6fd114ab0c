"""Dynamic-programming LCS length, kept as a test oracle.

This is `rouge.lcs_length` as it was before the bit-parallel form: the
standard O(|a|*|b|) table, one row at a time. `cohsum.rouge.lcs_length` and
the oracle labels built on it are tested against this function.
"""

from __future__ import annotations


def lcs_length(a: list[str], b: list[str]) -> int:
    """Length of the longest common subsequence, standard DP."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                cur.append(prev[j - 1] + 1)
            else:
                cur.append(max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]
