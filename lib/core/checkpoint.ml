(* Journal lines are [t1000v1 <digest> <hex key> <hex payload>], one
   record per line, last binding for a key wins.  The hex encoding keeps
   arbitrary keys and marshalled payloads newline- and space-free; the
   MD5 digest over [key NUL payload] detects truncated or corrupted
   records so a journal damaged by a crash mid-append (or a flipped
   byte on disk) degrades to recomputing the damaged points, never to
   resuming from garbage. *)

let magic = "t1000v1"
let env_var = "T1000_CHECKPOINT_DIR"

let default_dir () =
  match Sys.getenv_opt env_var with
  | None -> None
  | Some s when String.trim s = "" -> None
  | Some s -> Some s

(* The directory itself is created on demand, but pointing the variable
   at an existing *file* can only be a misconfiguration — catch it
   upfront (the CLI's validate_env) instead of failing mid-sweep when
   the first record is flushed. *)
let default_dir_validated () =
  match default_dir () with
  | Some d when Sys.file_exists d && not (Sys.is_directory d) ->
      raise
        (Fault.Error
           (Fault.Invalid_config
              (Printf.sprintf "%s points at %S, which is not a directory"
                 env_var d)))
  | o -> o

type t = {
  path : string;
  mutex : Mutex.t;
  tbl : (string, string) Hashtbl.t;  (* key -> marshalled payload *)
  corrupt : string list;  (* diagnostic per record dropped at load *)
}

let path t = t.path
let corrupt t = t.corrupt

let completed t =
  Mutex.lock t.mutex;
  let n = Hashtbl.length t.tbl in
  Mutex.unlock t.mutex;
  n

let digest ~key payload = Digest.to_hex (Digest.string (key ^ "\x00" ^ payload))

let hex_digits = "0123456789abcdef"

let hex_encode s =
  let n = String.length s in
  let b = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (String.unsafe_get s i) in
    Bytes.unsafe_set b (2 * i) (String.unsafe_get hex_digits (c lsr 4));
    Bytes.unsafe_set b ((2 * i) + 1) (String.unsafe_get hex_digits (c land 15))
  done;
  Bytes.unsafe_to_string b

(* Digit value of each character, -1 for all but the lowercase digits
   [hex_encode] writes: any other spelling of a byte is corruption. *)
let hex_value =
  let t = Array.make 256 (-1) in
  String.iteri (fun v c -> t.(Char.code c) <- v) hex_digits;
  t

let hex_decode s =
  let n = String.length s / 2 in
  if String.length s mod 2 <> 0 then None
  else begin
    let b = Bytes.create n in
    let rec go i =
      if i = n then Some (Bytes.unsafe_to_string b)
      else begin
        let hi = hex_value.(Char.code s.[2 * i])
        and lo = hex_value.(Char.code s.[(2 * i) + 1]) in
        if hi < 0 || lo < 0 then None
        else begin
          Bytes.unsafe_set b i (Char.unsafe_chr ((hi lsl 4) lor lo));
          go (i + 1)
        end
      end
    in
    go 0
  end

let parse_line line =
  match String.split_on_char ' ' line with
  | [ m; d; hk; hp ] when m = magic -> (
      match (hex_decode hk, hex_decode hp) with
      | Some key, Some payload when digest ~key payload = d -> `Ok (key, payload)
      | Some key, Some _ -> `Corrupt (Printf.sprintf "checksum mismatch for key %S" key)
      | _ -> `Corrupt "undecodable record")
  | _ when String.trim line = "" -> `Blank
  | _ -> `Corrupt "malformed line"

(* Loads [path] into [tbl]; returns the dropped lines' diagnostics and
   whether the file needs compacting: a dropped line, a superseded key
   or a last line without its newline (a torn append, which the next
   append must not glue onto). *)
let load_file path tbl =
  let ic = open_in_bin path in
  let corrupt = ref [] in
  let lineno = ref 0 and records = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       match parse_line line with
       | `Ok (key, payload) ->
           incr records;
           Hashtbl.replace tbl key payload
       | `Blank -> ()
       | `Corrupt why ->
           corrupt := Printf.sprintf "%s:%d: %s" path !lineno why :: !corrupt
     done
   with End_of_file -> ());
  let len = in_channel_length ic in
  let torn =
    len > 0
    && begin
         seek_in ic (len - 1);
         input_char ic <> '\n'
       end
  in
  close_in ic;
  (List.rev !corrupt, !corrupt <> [] || !records > Hashtbl.length tbl || torn)

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = Filename.dir_sep || Sys.file_exists dir
  then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let line ~key payload =
  Printf.sprintf "%s %s %s %s\n" magic (digest ~key payload) (hex_encode key)
    (hex_encode payload)

(* Compaction: every live record, sorted by key, into a temp file that
   an atomic rename puts in place, so a kill at any instant leaves
   either the old journal or the new one. *)
let compact path tbl =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Hashtbl.fold (fun k p acc -> (k, p) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (key, payload) -> output_string oc (line ~key payload));
  close_out oc;
  Sys.rename tmp path

let create ?(fresh = false) ~dir ~run () =
  mkdir_p dir;
  let path = Filename.concat dir (run ^ ".journal") in
  if fresh && Sys.file_exists path then Sys.remove path;
  let tbl = Hashtbl.create 64 in
  let corrupt =
    if Sys.file_exists path then begin
      let corrupt, dirty = load_file path tbl in
      if dirty then compact path tbl;
      corrupt
    end
    else []
  in
  { path; mutex = Mutex.create (); tbl; corrupt }

(* One [write] of one whole line on an [O_APPEND] descriptor: a kill
   can tear only this line, which the next load drops and compacts
   away. *)
let record t ~key v =
  let payload = Marshal.to_string v [] in
  let l = line ~key payload in
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      Hashtbl.replace t.tbl key payload;
      let fd =
        Unix.openfile t.path
          [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT; Unix.O_CLOEXEC ]
          0o644
      in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> ignore (Unix.write_substring fd l 0 (String.length l))))

let mem t ~key =
  Mutex.lock t.mutex;
  let r = Hashtbl.mem t.tbl key in
  Mutex.unlock t.mutex;
  r

let find t ~key =
  Mutex.lock t.mutex;
  let p = Hashtbl.find_opt t.tbl key in
  Mutex.unlock t.mutex;
  T1000_obs.Metrics.incr
    (match p with
    | Some _ -> "checkpoint.hits"
    | None -> "checkpoint.misses");
  Option.map (fun payload -> Marshal.from_string payload 0) p
