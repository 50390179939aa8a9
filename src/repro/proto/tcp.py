"""TCP header, options (MSS, window scale, timestamps, SACK), and the
modulo-2^32 sequence-number arithmetic every stack in the repo shares.
"""

import struct

from repro.proto.checksum import checksum16

FLAG_FIN = 0x01
FLAG_SYN = 0x02
FLAG_RST = 0x04
FLAG_PSH = 0x08
FLAG_ACK = 0x10
FLAG_URG = 0x20
FLAG_ECE = 0x40
FLAG_CWR = 0x80

#: Flags a FlexTOE data-path segment may carry (paper §3.1.3); anything
#: else (SYN, RST, URG) is diverted to the control-plane.
DATA_PATH_FLAGS = FLAG_ACK | FLAG_FIN | FLAG_PSH | FLAG_ECE | FLAG_CWR

BASE_HEADER_LEN = 20

#: Maximum segment size of every stack: a 1500 B Ethernet MTU minus the
#: 20 B IP header, the 20 B TCP header and the 12 B timestamp option.
MSS = 1448

_SEQ_MOD = 1 << 32
_SEQ_HALF = 1 << 31


def seq_add(seq, delta):
    """Sequence number ``delta`` bytes after ``seq`` (mod 2^32)."""
    return (seq + delta) % _SEQ_MOD


def seq_diff(a, b):
    """Signed distance a - b in sequence space (positive if a is after b)."""
    diff = (a - b) % _SEQ_MOD
    if diff >= _SEQ_HALF:
        diff -= _SEQ_MOD
    return diff


def seq_lt(a, b):
    """True if ``a`` precedes ``b`` in sequence space."""
    return seq_diff(a, b) < 0


def seq_lte(a, b):
    return seq_diff(a, b) <= 0


def seq_after(a, b):
    """True if ``a`` follows ``b`` in sequence space."""
    return seq_diff(a, b) > 0


def seq_between(low, value, high):
    """True if low <= value < high in sequence space."""
    return seq_lte(low, value) and seq_lt(value, high)


class TcpOptions:
    """The TCP options FlexTOE's data-path understands.

    * ``mss`` — maximum segment size (SYN only).
    * ``wscale`` — window scale shift (SYN only).
    * ``ts_val``/``ts_ecr`` — RFC 7323 timestamps (used by TIMELY).
    * ``sack_blocks`` — list of (start, end) SACK ranges (the Linux
      baseline's recovery uses these; FlexTOE ignores them: go-back-N).
    * ``sack_permitted`` — SACK-permitted option (SYN only).
    """

    __slots__ = ("mss", "wscale", "ts_val", "ts_ecr", "sack_blocks", "sack_permitted")

    def __init__(self, mss=None, wscale=None, ts_val=None, ts_ecr=None, sack_blocks=None, sack_permitted=False):
        self.mss = mss
        self.wscale = wscale
        self.ts_val = ts_val
        self.ts_ecr = ts_ecr
        self.sack_blocks = list(sack_blocks) if sack_blocks else []
        self.sack_permitted = sack_permitted

    @property
    def has_timestamps(self):
        return self.ts_val is not None

    def pack(self):
        out = bytearray()
        if self.mss is not None:
            out += struct.pack("!BBH", 2, 4, self.mss)
        if self.wscale is not None:
            out += struct.pack("!BBB", 3, 3, self.wscale)
        if self.sack_permitted:
            out += struct.pack("!BB", 4, 2)
        if self.ts_val is not None:
            out += struct.pack("!BBII", 8, 10, self.ts_val & 0xFFFFFFFF, (self.ts_ecr or 0) & 0xFFFFFFFF)
        if self.sack_blocks:
            length = 2 + 8 * len(self.sack_blocks)
            out += struct.pack("!BB", 5, length)
            for start, end in self.sack_blocks:
                out += struct.pack("!II", start % _SEQ_MOD, end % _SEQ_MOD)
        while len(out) % 4:
            out += b"\x01"  # NOP padding
        return bytes(out)

    @classmethod
    def unpack(cls, data):
        options = cls()
        i = 0
        n = len(data)
        while i < n:
            kind = data[i]
            if kind == 0:  # end of options
                break
            if kind == 1:  # NOP
                i += 1
                continue
            if i + 1 >= n:
                raise ValueError("truncated TCP option")
            length = data[i + 1]
            if length < 2 or i + length > n:
                raise ValueError("malformed TCP option length")
            body = data[i + 2 : i + length]
            if kind == 2 and length == 4:
                (options.mss,) = struct.unpack("!H", body)
            elif kind == 3 and length == 3:
                options.wscale = body[0]
            elif kind == 4 and length == 2:
                options.sack_permitted = True
            elif kind == 8 and length == 10:
                options.ts_val, options.ts_ecr = struct.unpack("!II", body)
            elif kind == 5:
                count = (length - 2) // 8
                for j in range(count):
                    start, end = struct.unpack_from("!II", body, j * 8)
                    options.sack_blocks.append((start, end))
            i += length
        return options

    @property
    def wire_len(self):
        raw = 0
        if self.mss is not None:
            raw += 4
        if self.wscale is not None:
            raw += 3
        if self.sack_permitted:
            raw += 2
        if self.ts_val is not None:
            raw += 10
        if self.sack_blocks:
            raw += 2 + 8 * len(self.sack_blocks)
        return (raw + 3) // 4 * 4

    def copy(self):
        return TcpOptions(
            self.mss, self.wscale, self.ts_val, self.ts_ecr, list(self.sack_blocks), self.sack_permitted
        )

    def __repr__(self):
        parts = []
        if self.mss is not None:
            parts.append("mss={}".format(self.mss))
        if self.wscale is not None:
            parts.append("wscale={}".format(self.wscale))
        if self.ts_val is not None:
            parts.append("ts={}:{}".format(self.ts_val, self.ts_ecr))
        if self.sack_blocks:
            parts.append("sack={}".format(self.sack_blocks))
        return "<TcpOptions {}>".format(" ".join(parts) or "none")


def flags_to_str(flags):
    names = [
        (FLAG_SYN, "S"),
        (FLAG_FIN, "F"),
        (FLAG_RST, "R"),
        (FLAG_PSH, "P"),
        (FLAG_ACK, "A"),
        (FLAG_URG, "U"),
        (FLAG_ECE, "E"),
        (FLAG_CWR, "C"),
    ]
    return "".join(label for bit, label in names if flags & bit) or "-"


class TcpHeader:
    """A TCP header. ``window`` is the unscaled on-wire window field."""

    __slots__ = ("sport", "dport", "seq", "ack", "flags", "window", "urgent", "options")

    def __init__(self, sport, dport, seq=0, ack=0, flags=0, window=0, urgent=0, options=None):
        self.sport = sport
        self.dport = dport
        self.seq = seq % _SEQ_MOD
        self.ack = ack % _SEQ_MOD
        self.flags = flags
        self.window = window
        self.urgent = urgent
        self.options = options if options is not None else TcpOptions()

    @property
    def wire_len(self):
        return BASE_HEADER_LEN + self.options.wire_len

    @property
    def data_offset(self):
        return self.wire_len // 4

    def has_flags(self, mask):
        return bool(self.flags & mask)

    @property
    def is_data_path(self):
        """True if this segment is eligible for FlexTOE's offloaded
        data-path (only ACK/FIN/PSH/ECE/CWR flags, paper §3.1.3)."""
        return (self.flags & ~DATA_PATH_FLAGS) == 0

    def pack(self, pseudo_header=None, payload=b""):
        opt_bytes = self.options.pack()
        offset_flags = ((BASE_HEADER_LEN + len(opt_bytes)) // 4) << 12 | (self.flags & 0x0FFF)
        header = struct.pack(
            "!HHIIHHHH",
            self.sport,
            self.dport,
            self.seq,
            self.ack,
            offset_flags,
            self.window,
            0,
            self.urgent,
        )
        header += opt_bytes
        if pseudo_header is None:
            return header
        cksum = checksum16(pseudo_header + header + payload)
        return header[:16] + struct.pack("!H", cksum) + header[18:]

    @classmethod
    def unpack(cls, data):
        if len(data) < BASE_HEADER_LEN:
            raise ValueError("truncated TCP header")
        sport, dport, seq, ack, offset_flags, window, _cksum, urgent = struct.unpack_from("!HHIIHHHH", data, 0)
        header_len = ((offset_flags >> 12) & 0xF) * 4
        if header_len < BASE_HEADER_LEN or header_len > len(data):
            raise ValueError("malformed TCP data offset")
        options = TcpOptions.unpack(data[BASE_HEADER_LEN:header_len])
        header = cls(
            sport=sport,
            dport=dport,
            seq=seq,
            ack=ack,
            flags=offset_flags & 0x0FFF,
            window=window,
            urgent=urgent,
            options=options,
        )
        return header, header_len

    def copy(self):
        return TcpHeader(
            self.sport,
            self.dport,
            self.seq,
            self.ack,
            self.flags,
            self.window,
            self.urgent,
            self.options.copy(),
        )

    def __repr__(self):
        return "<TCP {}->{} [{}] seq={} ack={} win={}>".format(
            self.sport, self.dport, flags_to_str(self.flags), self.seq, self.ack, self.window
        )
