"""Mobility-aware link admission: piggybacked kinematics and lifetime threshold."""

from __future__ import annotations

from .mobility import Kinematics, LetMode, link_expiration_time
from .model import CommonHeader

def annotate(header: CommonHeader, sender_kin: Kinematics, annex_bytes: int) -> CommonHeader:
    """Attach the transmitter's kinematics to a header.

    The annex enlarges the packet once; re-annotating a forwarded packet
    replaces the kinematics without growing it again.
    """
    grow = annex_bytes if header.sender_kin is None else 0
    return header._replace(sender_kin=sender_kin, size=header.size + grow)


def admit_link(sender_kin: Kinematics, receiver_kin: Kinematics, r: float,
               threshold: float, mode: LetMode = LetMode.STRICT) -> bool:
    """True iff the predicted link lifetime meets the threshold (inf always does)."""
    return link_expiration_time(sender_kin, receiver_kin, r, mode) >= threshold
