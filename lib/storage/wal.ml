open Relational

type entry =
  | Insert of Tuple.t
  | Delete of Tuple.t
  | Txn_begin of int
  | Txn_insert of int * Tuple.t
  | Txn_delete of int * Tuple.t
  | Txn_commit of int
  | Txn_abort of int
  | View_def of { view : string; base : string; by : string list }
  | View_drop of string
  | Manifest_commit of { txid : int; tables : (string * int) list }

type format = V0 | V1

type t = {
  mutable channel : out_channel;
  mutable open_ : bool;
  mutable format : format;
  mutable generation : int;
  mutable written_bytes : int;
      (* bytes handed to the channel since open (header included) *)
  mutable synced_bytes : int;
      (* durable watermark: bytes covered by the last real fsync (or
         present at open, which only follows a flushed close/reset) *)
  path : string;
}

(* v1 on-disk layout:
     header  "NF2WALv1" (8 bytes) + varint generation
     frame   0xA7 marker + varint payload length + payload
             + CRC32(payload) little-endian (4 bytes)
   The generation increments on every truncation; snapshots record the
   generation they were cut against, which is what lets recovery tell
   a fresh post-checkpoint log from a stale pre-checkpoint one.

   v0 (legacy) has no header; frames are varint length + payload + a
   1-byte additive checksum. [replay] still reads it; [open_log] keeps
   appending v0 frames to a v0 file so one log never mixes formats. *)
let magic = "NF2WALv1"
let frame_marker = '\xA7'

let legacy_checksum payload =
  let total = ref 0 in
  String.iter (fun c -> total := (!total + Char.code c) land 0xFF) payload;
  !total

let encode_header generation =
  let buffer = Buffer.create 12 in
  Buffer.add_string buffer magic;
  Codec.encode_varint buffer generation;
  Buffer.contents buffer

(* (format, generation, offset of the first frame); [`Torn] when the
   file starts with the magic but the generation varint is cut off. *)
let parse_header bytes =
  let length = Bytes.length bytes in
  if length >= String.length magic && Bytes.sub_string bytes 0 (String.length magic) = magic
  then begin
    match Codec.decode_varint bytes (String.length magic) with
    | generation, offset -> `V1 (generation, offset)
    | exception Storage_error.Error _ -> `Torn
  end
  else `V0

let read_file path =
  let channel = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr channel)
    (fun () -> really_input_string channel (in_channel_length channel))

let generation t = t.generation

(* Catalog records carry names, which Codec has no codec for; a
   varint length prefix keeps them self-delimiting inside a frame. *)
let encode_string buffer s =
  Codec.encode_varint buffer (String.length s);
  Buffer.add_string buffer s

let decode_string bytes offset =
  let length, offset = Codec.decode_varint bytes offset in
  if length < 0 || offset + length > Bytes.length bytes then
    Storage_error.corrupt ~context:"Wal.decode_entry" ~offset
      "truncated string"
  else (Bytes.sub_string bytes offset length, offset + length)

(* Autocommit entries keep their original tags ('I'/'D') so every
   pre-transaction log replays unchanged. Transactional entries carry
   a varint txid after the tag; lowercase 'i'/'d' mirror their
   autocommit counterparts. 'V'/'W' are view-catalog records (define/
   drop); they carry no tuples and belong in a catalog log, not a
   table log. *)
let encode_entry entry =
  let buffer = Buffer.create 32 in
  (match entry with
  | Insert tuple ->
    Buffer.add_char buffer 'I';
    Codec.encode_tuple buffer tuple
  | Delete tuple ->
    Buffer.add_char buffer 'D';
    Codec.encode_tuple buffer tuple
  | Txn_begin txid ->
    Buffer.add_char buffer 'B';
    Codec.encode_varint buffer txid
  | Txn_insert (txid, tuple) ->
    Buffer.add_char buffer 'i';
    Codec.encode_varint buffer txid;
    Codec.encode_tuple buffer tuple
  | Txn_delete (txid, tuple) ->
    Buffer.add_char buffer 'd';
    Codec.encode_varint buffer txid;
    Codec.encode_tuple buffer tuple
  | Txn_commit txid ->
    Buffer.add_char buffer 'C';
    Codec.encode_varint buffer txid
  | Txn_abort txid ->
    Buffer.add_char buffer 'A';
    Codec.encode_varint buffer txid
  | View_def { view; base; by } ->
    Buffer.add_char buffer 'V';
    encode_string buffer view;
    encode_string buffer base;
    Codec.encode_varint buffer (List.length by);
    List.iter (encode_string buffer) by
  | View_drop view ->
    Buffer.add_char buffer 'W';
    encode_string buffer view
  | Manifest_commit { txid; tables } ->
    (* 'M' lives only in the global commit manifest (_commit.wal): one
       record per transaction naming every participating table and the
       commit sequence its group claimed there. A per-table Txn_commit
       without a matching manifest record is provisional, not durable. *)
    Buffer.add_char buffer 'M';
    Codec.encode_varint buffer txid;
    Codec.encode_varint buffer (List.length tables);
    List.iter
      (fun (table, seq) ->
        encode_string buffer table;
        Codec.encode_varint buffer seq)
      tables);
  Buffer.contents buffer

let add_le32 buffer n =
  for shift = 0 to 3 do
    Buffer.add_char buffer (Char.chr ((n lsr (shift * 8)) land 0xFF))
  done

let read_le32 bytes offset =
  let byte i = Char.code (Bytes.get bytes (offset + i)) in
  byte 0 lor (byte 1 lsl 8) lor (byte 2 lsl 16) lor (byte 3 lsl 24)

let frame_v1 payload =
  let framed = Buffer.create (String.length payload + 10) in
  Buffer.add_char framed frame_marker;
  Codec.encode_varint framed (String.length payload);
  Buffer.add_string framed payload;
  add_le32 framed (Crc32.digest payload);
  Buffer.contents framed

let frame_v0 payload =
  let framed = Buffer.create (String.length payload + 8) in
  Codec.encode_varint framed (String.length payload);
  Buffer.add_string framed payload;
  Buffer.add_char framed (Char.chr (legacy_checksum payload));
  Buffer.contents framed

(* Buffered append: the frame reaches the OS page cache (stdlib
   [flush]), NOT the platter. Durability requires a later [sync] —
   the flush-vs-fsync split is the whole point: acknowledgements must
   wait for [sync], while many appends can share one. *)
let append t entry =
  if not t.open_ then raise (Storage_error.Error (Storage_error.Closed "Wal.append"));
  Obs.Span.with_span Obs.Span.Wal_append "wal.append" (fun span ->
      Failpoint.hit "wal.append.before";
      let payload = encode_entry entry in
      let framed =
        match t.format with V1 -> frame_v1 payload | V0 -> frame_v0 payload
      in
      let registry = Obs.Registry.global in
      Obs.Registry.incr registry "wal.append_total";
      Obs.Registry.add registry "wal.bytes_total" (String.length framed);
      Obs.Registry.add_gauge registry "wal.bytes_unflushed"
        (float_of_int (String.length framed));
      Obs.Span.add_bytes span (String.length framed);
      (match Failpoint.on_write "wal.append.frame" framed with
      | Failpoint.Full data ->
        output_string t.channel data;
        t.written_bytes <- t.written_bytes + String.length data
      | Failpoint.Dropped -> ()
      | Failpoint.Partial prefix ->
        output_string t.channel prefix;
        t.written_bytes <- t.written_bytes + String.length prefix;
        flush t.channel;
        raise (Failpoint.Crashed "wal.append.frame"));
      let flush_start = Obs.Span.now () in
      flush t.channel;
      Obs.Registry.incr registry "wal.flush_total";
      Obs.Registry.add_gauge registry "wal.bytes_unflushed"
        (-.float_of_int (String.length framed));
      Obs.Registry.add_gauge registry "wal.bytes_unsynced"
        (float_of_int (String.length framed));
      Obs.Registry.observe registry "wal.flush.seconds"
        (Obs.Span.now () -. flush_start);
      Failpoint.hit "wal.append.after")

let unsynced_bytes t = t.written_bytes - t.synced_bytes

(* The durability barrier: a real [Unix.fsync]. No-op when the
   watermark already covers every written byte, so idle group-commit
   ticks cost one integer compare. *)
let sync t =
  if not t.open_ then raise (Storage_error.Error (Storage_error.Closed "Wal.sync"));
  if t.written_bytes > t.synced_bytes then begin
    (match Failpoint.on_sync "wal.sync.before" with
    | Failpoint.Proceed -> ()
    | Failpoint.Power_cut ->
      (* Simulated power loss before the fsync lands: every byte that
         only reached the OS page cache vanishes. Push the user buffer
         out first so the truncation below is the only editor of the
         file, then cut back to the durable watermark and "die". *)
      flush t.channel;
      Unix.ftruncate (Unix.descr_of_out_channel t.channel) t.synced_bytes;
      raise (Failpoint.Crashed "wal.sync.before"));
    Obs.Span.with_span Obs.Span.Wal_sync "wal.sync" (fun span ->
        flush t.channel;
        Unix.fsync (Unix.descr_of_out_channel t.channel);
        let registry = Obs.Registry.global in
        let covered = unsynced_bytes t in
        t.synced_bytes <- t.written_bytes;
        Obs.Registry.incr registry "wal.sync_total";
        Obs.Registry.add_gauge registry "wal.bytes_unsynced"
          (-.float_of_int covered);
        Obs.Span.add_bytes span covered;
        Obs.Registry.observe registry "wal.sync.seconds"
          (Obs.Span.now () -. span.Obs.Span.start_s));
    Failpoint.hit "wal.sync.after"
  end

let close t =
  if t.open_ then begin
    (* A graceful close is a durability point: flush and fsync so the
       log survives power loss, not just process exit. Ignore errors —
       close must stay usable on crashed/degraded handles. *)
    (try
       flush t.channel;
       Unix.fsync (Unix.descr_of_out_channel t.channel);
       t.synced_bytes <- t.written_bytes
     with _ -> ())
  end;
  t.open_ <- false;
  close_out_noerr t.channel

let decode_entry payload =
  let bytes = Bytes.of_string payload in
  if Bytes.length bytes < 1 then
    Storage_error.corrupt ~context:"Wal.decode_entry" ~offset:0 "empty entry";
  let exhausted consumed =
    if consumed <> Bytes.length bytes then
      Storage_error.corrupt ~context:"Wal.decode_entry" ~offset:consumed
        "trailing bytes in entry"
  in
  let tuple_entry make offset =
    let tuple, consumed = Codec.decode_tuple bytes offset in
    exhausted consumed;
    make tuple
  in
  let txid_entry make =
    let txid, consumed = Codec.decode_varint bytes 1 in
    exhausted consumed;
    make txid
  in
  let txid_tuple_entry make =
    let txid, offset = Codec.decode_varint bytes 1 in
    tuple_entry (make txid) offset
  in
  match Bytes.get bytes 0 with
  | 'I' -> tuple_entry (fun t -> Insert t) 1
  | 'D' -> tuple_entry (fun t -> Delete t) 1
  | 'B' -> txid_entry (fun id -> Txn_begin id)
  | 'C' -> txid_entry (fun id -> Txn_commit id)
  | 'A' -> txid_entry (fun id -> Txn_abort id)
  | 'i' -> txid_tuple_entry (fun id t -> Txn_insert (id, t))
  | 'd' -> txid_tuple_entry (fun id t -> Txn_delete (id, t))
  | 'V' ->
    let view, offset = decode_string bytes 1 in
    let base, offset = decode_string bytes offset in
    let count, offset = Codec.decode_varint bytes offset in
    if count < 0 || count > Bytes.length bytes - offset then
      Storage_error.corrupt ~context:"Wal.decode_entry" ~offset
        (Printf.sprintf "view partition count %d out of range" count);
    let rec strings acc offset remaining =
      if remaining = 0 then (List.rev acc, offset)
      else
        let s, offset = decode_string bytes offset in
        strings (s :: acc) offset (remaining - 1)
    in
    let by, consumed = strings [] offset count in
    exhausted consumed;
    View_def { view; base; by }
  | 'W' ->
    let view, consumed = decode_string bytes 1 in
    exhausted consumed;
    View_drop view
  | 'M' ->
    let txid, offset = Codec.decode_varint bytes 1 in
    let count, offset = Codec.decode_varint bytes offset in
    if count < 0 || count > Bytes.length bytes - offset then
      Storage_error.corrupt ~context:"Wal.decode_entry" ~offset
        (Printf.sprintf "manifest table count %d out of range" count);
    let rec tables acc offset remaining =
      if remaining = 0 then (List.rev acc, offset)
      else
        let table, offset = decode_string bytes offset in
        let seq, offset = Codec.decode_varint bytes offset in
        tables ((table, seq) :: acc) offset (remaining - 1)
    in
    let tables, consumed = tables [] offset count in
    exhausted consumed;
    Manifest_commit { txid; tables }
  | c ->
    Storage_error.corrupt ~context:"Wal.decode_entry" ~offset:0
      (Printf.sprintf "unknown entry tag %C" c)

(* ------------------------------------------------------------------ *)
(* Replay and salvage                                                  *)
(* ------------------------------------------------------------------ *)

type salvage = {
  entries : entry list;
  format : format;
  generation : int;
  scanned_bytes : int;
  bytes_skipped : int;
  first_bad_offset : int option;
  torn_tail_bytes : int;
}

let empty_salvage =
  {
    entries = [];
    format = V1;
    generation = 0;
    scanned_bytes = 0;
    bytes_skipped = 0;
    first_bad_offset = None;
    torn_tail_bytes = 0;
  }

(* [Some (entry, next)] iff a complete, checksummed, decodable frame
   sits exactly at [offset]. Every parse failure means "no". *)
let valid_frame_v1 bytes length offset =
  if offset >= length || Bytes.get bytes offset <> frame_marker then None
  else
    match
      let payload_length, after = Codec.decode_varint bytes (offset + 1) in
      if payload_length < 0 || after + payload_length + 4 > length then None
      else begin
        let stored = read_le32 bytes (after + payload_length) in
        if stored <> Crc32.digest_bytes bytes ~pos:after ~len:payload_length then None
        else
          Some
            ( decode_entry (Bytes.sub_string bytes after payload_length),
              after + payload_length + 4 )
      end
    with
    | result -> result
    | exception Storage_error.Error _ -> None

let valid_frame_v0 bytes length offset =
  if offset >= length then None
  else
    match
      let payload_length, after = Codec.decode_varint bytes offset in
      if payload_length <= 0 || after + payload_length + 1 > length then None
      else begin
        let payload = Bytes.sub_string bytes after payload_length in
        let stored = Char.code (Bytes.get bytes (after + payload_length)) in
        if stored <> legacy_checksum payload then None
        else Some (decode_entry payload, after + payload_length + 1)
      end
    with
    | result -> result
    | exception Storage_error.Error _ -> None

(* Scan ahead: on a bad frame, the first later offset holding a fully
   valid frame (v1 additionally requires the marker byte, so almost
   every offset is rejected in O(1); random debris only survives a
   32-bit CRC with probability 2^-32, v0's additive byte let 1/256
   of debris through — the false-positive path this replaces). *)
let scan_forward valid_frame length probe =
  let rec loop probe =
    if probe >= length then None
    else
      match valid_frame probe with
      | Some _ -> Some probe
      | None -> loop (probe + 1)
  in
  loop probe

let salvage_frames bytes length start ~format ~generation =
  let valid_frame =
    match format with
    | V1 -> valid_frame_v1 bytes length
    | V0 -> valid_frame_v0 bytes length
  in
  let rec loop offset acc skipped first_bad =
    if offset >= length then (List.rev acc, skipped, first_bad, 0)
    else
      match valid_frame offset with
      | Some (entry, next) -> loop next (entry :: acc) skipped first_bad
      | None -> (
        let first_bad = match first_bad with None -> Some offset | some -> some in
        match scan_forward valid_frame length (offset + 1) with
        | Some resume -> loop resume acc (skipped + resume - offset) first_bad
        | None -> (List.rev acc, skipped, first_bad, length - offset))
  in
  let entries, bytes_skipped, first_bad_offset, torn_tail_bytes = loop start [] 0 None in
  {
    entries;
    format;
    generation;
    scanned_bytes = length;
    bytes_skipped;
    first_bad_offset;
    torn_tail_bytes;
  }

let replay_salvage path =
  Obs.Span.with_span Obs.Span.Wal_replay "wal.replay" (fun span ->
      let salvage =
        if not (Sys.file_exists path) then empty_salvage
        else begin
          let contents = read_file path in
          if contents = "" then empty_salvage
          else begin
            let bytes = Bytes.of_string contents in
            let length = Bytes.length bytes in
            match parse_header bytes with
            | `V1 (generation, offset) ->
              salvage_frames bytes length offset ~format:V1 ~generation
            | `V0 -> salvage_frames bytes length 0 ~format:V0 ~generation:0
            | `Torn ->
              {
                empty_salvage with
                scanned_bytes = length;
                first_bad_offset = Some 0;
                torn_tail_bytes = length;
              }
          end
        end
      in
      Obs.Span.set_bytes span salvage.scanned_bytes;
      Obs.Span.set_rows span (List.length salvage.entries);
      Obs.Registry.incr Obs.Registry.global "wal.replay_total";
      if salvage.first_bad_offset <> None then
        Obs.Registry.incr Obs.Registry.global "wal.salvage_total";
      salvage)

(* The entries of a scan under [replay]'s strict contract: a torn tail
   is crash debris and drops silently, mid-log damage raises. *)
let clean_entries salvage =
  if salvage.bytes_skipped > 0 then
    Storage_error.corrupt ~context:"Wal.replay"
      ~offset:(Option.value ~default:0 salvage.first_bad_offset)
      (Printf.sprintf
         "corrupt entry mid-log (%d bytes skipped before a later valid frame); use \
          replay_salvage to recover around it"
         salvage.bytes_skipped)
  else salvage.entries

let replay path = clean_entries (replay_salvage path)

(* ------------------------------------------------------------------ *)
(* Opening                                                             *)
(* ------------------------------------------------------------------ *)

let open_scanned path salvage =
  (* An empty file or a torn header (the only way a v1 scan fails at
     offset 0) means nothing in the file can be valid: start afresh. *)
  let fresh =
    salvage.scanned_bytes = 0 || (salvage.format = V1 && salvage.first_bad_offset = Some 0)
  in
  (* Whatever the file holds once opening completes is the durable
     baseline: fsync it so the watermark claim ("synced bytes survive
     power loss") is true from the first append. *)
  let settle channel =
    flush channel;
    (try Unix.fsync (Unix.descr_of_out_channel channel) with Unix.Unix_error _ -> ())
  in
  if fresh then begin
    let channel =
      open_out_gen [ Open_wronly; Open_trunc; Open_creat; Open_binary ] 0o644 path
    in
    output_string channel (encode_header 1);
    settle channel;
    let size = String.length (encode_header 1) in
    { channel; open_ = true; format = V1; generation = 1;
      written_bytes = size; synced_bytes = size; path }
  end
  else begin
    (* When a crash tore the last frame, appending after the debris
       would bury it mid-log: trim back to the last frame boundary. *)
    let size = salvage.scanned_bytes - salvage.torn_tail_bytes in
    if salvage.torn_tail_bytes > 0 then Unix.truncate path size;
    let channel =
      open_out_gen [ Open_wronly; Open_append; Open_creat; Open_binary ] 0o644 path
    in
    settle channel;
    { channel; open_ = true; format = salvage.format; generation = salvage.generation;
      written_bytes = size; synced_bytes = size; path }
  end

let open_log path =
  let present = Sys.file_exists path && (Unix.stat path).Unix.st_size > 0 in
  open_scanned path (if present then replay_salvage path else empty_salvage)

(* ------------------------------------------------------------------ *)
(* Truncation                                                          *)
(* ------------------------------------------------------------------ *)

let write_truncated path generation =
  Failpoint.hit "wal.reset";
  let channel =
    open_out_gen [ Open_wronly; Open_trunc; Open_creat; Open_binary ] 0o644 path
  in
  output_string channel (encode_header generation);
  (* A truncation discards history; the replacement header must be
     durable before anyone trusts the new generation. *)
  flush channel;
  (try Unix.fsync (Unix.descr_of_out_channel channel) with Unix.Unix_error _ -> ());
  close_out_noerr channel

let reset path =
  let previous =
    if Sys.file_exists path then (replay_salvage path).generation else 0
  in
  write_truncated path (previous + 1)

let truncate ?(past = 0) t =
  if not t.open_ then raise (Storage_error.Error (Storage_error.Closed "Wal.truncate"));
  close_out_noerr t.channel;
  let generation = max t.generation past + 1 in
  write_truncated t.path generation;
  t.channel <- open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 t.path;
  t.format <- V1;
  t.generation <- generation;
  let size = String.length (encode_header generation) in
  t.written_bytes <- size;
  t.synced_bytes <- size
