(** Bit-level I/O for the label codec (DESIGN §3h).

    A writer appends fields of explicit bit widths, LSB-first inside
    each byte; a reader consumes the same stream. Varints are LEB128
    groups embedded in the bitstream: 8 bits per group, low 7 bits of
    data, high bit = continue. Both sides must agree on field order and
    widths — there is no in-band typing. *)

(** {1 Writing} *)

type writer

val writer : unit -> writer

(** [put w ~bits v] appends the low [bits] bits of [v] (LSB first).
    [0 <= bits <= 30] and [0 <= v < 2^bits]. *)
val put : writer -> bits:int -> int -> unit

(** [put_varint w v] appends a non-negative int as LEB128 groups. *)
val put_varint : writer -> int -> unit

(** [contents w] pads the final partial byte with zeros and returns the
    stream. The writer stays usable; later [put]s continue after the
    padding only if the bit length was already byte-aligned. *)
val contents : writer -> string

val bit_length : writer -> int

(** {1 Reading} *)

type reader

(** Raised by {!get}/{!get_varint} past the end of the stream. *)
exception Truncated

(** [reader s] starts at bit 0 of [s]. *)
val reader : string -> reader

(** [get r ~bits] consumes and returns the next [bits]-bit field. The
    width contract is [put]'s: [0 <= bits <= 30].
    @raise Invalid_argument if [bits] is outside [[0, 30]]; nothing is
    consumed.
    @raise Truncated if fewer than [bits] bits remain. *)
val get : reader -> bits:int -> int

(** [get_varint r] consumes a LEB128 varint.
    @raise Truncated on a group cut short. *)
val get_varint : reader -> int

(** [bits_left r] is the number of unread bits. *)
val bits_left : reader -> int

(** {1 Width arithmetic} *)

(** [bits_needed v] is the smallest width that can hold [v]
    ([bits_needed 0 = 1]). *)
val bits_needed : int -> int
