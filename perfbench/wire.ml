(** Memcached ASCII responses, parsed incrementally out of a byte buffer
    that may hold several pipelined responses or a torn prefix of one. *)

type response =
  | Stored
  | Value of { key : string; data : string }  (** a one-key get hit *)
  | Miss  (** a get answered with a bare [END] *)
  | Stats of (string * string) list  (** [STAT k v] lines up to [END] *)
  | Other of string  (** any other reply line, e.g. [ERROR] *)

type parsed = Parsed of response * int  (** bytes consumed *) | Partial

(* Index of the '\n' ending the line at [pos], if inside the window. *)
let line_end buf ~pos ~stop =
  let rec go i = if i >= stop then None else if Bytes.get buf i = '\n' then Some i else go (i + 1) in
  go pos

let line buf ~pos ~lf =
  let e = if lf > pos && Bytes.get buf (lf - 1) = '\r' then lf - 1 else lf in
  Bytes.sub_string buf pos (e - pos)

let rec parse_stats buf ~start ~pos ~stop acc =
  match line_end buf ~pos ~stop with
  | None -> Partial
  | Some lf -> (
      let l = line buf ~pos ~lf in
      (* "STAT <key> <value>"; the value runs to the end of the line. *)
      let sep = if String.starts_with ~prefix:"STAT " l then String.index_from_opt l 5 ' ' else None in
      match sep with
      | _ when l = "END" -> Parsed (Stats (List.rev acc), lf + 1 - start)
      | Some i ->
          let kv = (String.sub l 5 (i - 5), String.sub l (i + 1) (String.length l - i - 1)) in
          parse_stats buf ~start ~pos:(lf + 1) ~stop (kv :: acc)
      | None -> Parsed (Other l, lf + 1 - start))

(** [parse buf ~pos ~len] parses the leading response of
    [buf.[pos .. pos+len)]. A malformed [VALUE] block parses as [Other]. *)
let parse buf ~pos ~len =
  let stop = pos + len in
  match line_end buf ~pos ~stop with
  | None -> Partial
  | Some lf -> (
      let l = line buf ~pos ~lf in
      match l with
      | "STORED" -> Parsed (Stored, lf + 1 - pos)
      | "END" -> Parsed (Miss, lf + 1 - pos)
      | _ when String.starts_with ~prefix:"STAT " l -> parse_stats buf ~start:pos ~pos ~stop []
      | _ when String.starts_with ~prefix:"VALUE " l -> (
          match String.split_on_char ' ' l with
          | [ _; key; _flags; bytes ] -> (
              match int_of_string_opt bytes with
              | Some n when n >= 0 ->
                  let data_at = lf + 1 in
                  let trailer = "\r\nEND\r\n" in
                  let total = data_at + n + String.length trailer in
                  if total > stop then Partial
                  else if Bytes.sub_string buf (data_at + n) (String.length trailer) <> trailer
                  then Parsed (Other l, total - pos)
                  else
                    Parsed (Value { key; data = Bytes.sub_string buf data_at n }, total - pos)
              | _ -> Parsed (Other l, lf + 1 - pos))
          | _ -> Parsed (Other l, lf + 1 - pos))
      | _ -> Parsed (Other l, lf + 1 - pos))

(** A blocking socket with a receive buffer. *)
type reader = { fd : Unix.file_descr; mutable buf : Bytes.t; mutable pos : int; mutable len : int }

let reader fd = { fd; buf = Bytes.create 65536; pos = 0; len = 0 }

let fill r =
  if r.pos > 0 then begin
    Bytes.blit r.buf r.pos r.buf 0 r.len;
    r.pos <- 0
  end;
  if r.len = Bytes.length r.buf then begin
    let b = Bytes.create (2 * Bytes.length r.buf) in
    Bytes.blit r.buf 0 b 0 r.len;
    r.buf <- b
  end;
  let n = Unix.read r.fd r.buf r.len (Bytes.length r.buf - r.len) in
  if n = 0 then raise End_of_file;
  r.len <- r.len + n

(** The next response, reading from the socket as needed; raises
    [End_of_file] if the server closes the connection. *)
let rec next r =
  match parse r.buf ~pos:r.pos ~len:r.len with
  | Parsed (resp, consumed) ->
      r.pos <- r.pos + consumed;
      r.len <- r.len - consumed;
      resp
  | Partial ->
      fill r;
      next r

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0
