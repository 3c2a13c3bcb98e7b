type fault =
  | Crash
  | Short_write of int
  | Bit_flip of int
  | Drop_write
  | Lose_unsynced

exception Crashed of string

type site_kind = [ `Control | `Write | `Sync ]

let sites =
  [
    ("wal.append.before", `Control);
    ("wal.append.frame", `Write);
    ("wal.append.after", `Control);
    ("wal.sync.before", `Sync);
    ("wal.sync.after", `Control);
    ("wal.reset", `Control);
    ("snapshot.body", `Write);
    ("snapshot.sync", `Sync);
    ("snapshot.rename", `Control);
    ("engine.load.record", `Write);
    (* Cross-table commit windows: between one table's provisional
       commit append and the next's, and between the last table's
       append and the manifest record. *)
    ("txn.commit.table", `Control);
    ("manifest.append.before", `Control);
  ]

let faults_for = function
  | `Control -> [ Crash ]
  | `Write -> [ Crash; Short_write 3; Bit_flip 13; Drop_write ]
  | `Sync -> [ Crash; Lose_unsynced ]

type armed = {
  fault : fault;
  mutable countdown : int;  (* hits to let through before firing *)
}

let armed_table : (string, armed) Hashtbl.t = Hashtbl.create 8
let hit_counts : (string, int ref) Hashtbl.t = Hashtbl.create 8
let fired_log : (string * fault) list ref = ref []

let arm ?(after = 0) site fault = Hashtbl.replace armed_table site { fault; countdown = after }
let disarm site = Hashtbl.remove armed_table site

let reset () =
  Hashtbl.reset armed_table;
  Hashtbl.reset hit_counts;
  fired_log := []

let note_hit site =
  match Hashtbl.find_opt hit_counts site with
  | Some count -> incr count
  | None -> Hashtbl.replace hit_counts site (ref 1)

let hits site =
  match Hashtbl.find_opt hit_counts site with Some count -> !count | None -> 0

let fired () = List.rev !fired_log

(* The fault due at this hit, if any; one-shot. *)
let trigger site =
  match Hashtbl.find_opt armed_table site with
  | None -> None
  | Some armed ->
    if armed.countdown > 0 then begin
      armed.countdown <- armed.countdown - 1;
      None
    end
    else begin
      Hashtbl.remove armed_table site;
      fired_log := (site, armed.fault) :: !fired_log;
      Obs.Registry.incr_labeled Obs.Registry.global "failpoints.tripped"
        [ ("site", site) ];
      Some armed.fault
    end

let hit site =
  note_hit site;
  match trigger site with
  | Some Crash -> raise (Crashed site)
  | Some (Short_write _ | Bit_flip _ | Drop_write | Lose_unsynced) | None -> ()

type sync_effect =
  | Proceed
  | Power_cut

let on_sync site =
  note_hit site;
  match trigger site with
  | Some Crash -> raise (Crashed site)
  | Some Lose_unsynced -> Power_cut
  | Some (Short_write _ | Bit_flip _ | Drop_write) | None -> Proceed

type write_effect =
  | Full of string
  | Partial of string
  | Dropped

let on_write site data =
  note_hit site;
  match trigger site with
  | None -> Full data
  | Some Crash -> Partial ""
  (* A power cut at a plain write site behaves like a crash with the
     write lost: nothing of this frame reaches the file. *)
  | Some Lose_unsynced -> Partial ""
  | Some (Short_write n) -> Partial (String.sub data 0 (min (max n 0) (String.length data)))
  | Some Drop_write -> Dropped
  | Some (Bit_flip n) ->
    if String.length data = 0 then Full data
    else begin
      let bytes = Bytes.of_string data in
      let bit = abs n mod (8 * Bytes.length bytes) in
      let index = bit / 8 in
      Bytes.set bytes index
        (Char.chr (Char.code (Bytes.get bytes index) lxor (1 lsl (bit mod 8))));
      Full (Bytes.unsafe_to_string bytes)
    end

(* A tiny SplitMix64 step, so plans need no dependency on Workload. *)
let plan ~seed n =
  let state = ref (Int64.of_int seed) in
  let next () =
    state := Int64.add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.to_int (Int64.logand (Int64.logxor z (Int64.shift_right_logical z 31)) 0x3FFFFFFFL)
  in
  let site_array = Array.of_list sites in
  List.init n (fun _ ->
      let site, kind = site_array.(next () mod Array.length site_array) in
      let faults = Array.of_list (faults_for kind) in
      (site, faults.(next () mod Array.length faults)))

let with_faults pairs f =
  reset ();
  List.iter (fun (site, fault) -> arm site fault) pairs;
  Fun.protect ~finally:reset f
