(* The deterministic storage seam: every byte the durability layer reads or
   writes crosses one of these two devices.

   [mem] is the simulation's "disk" — a plain buffer held OUTSIDE the
   runtime, so it survives Runtime.crash/recover exactly like a real disk
   survives a process crash, and a replay of the same seed reproduces its
   contents byte for byte under the virtual clock.

   [file] is the CLI backend (`--store-dir`, `store-check`): it mirrors the
   on-disk file in memory and flushes each append, so reads never touch the
   filesystem twice and a crash mid-append leaves at worst a torn tail —
   which Log.replay tolerates.

   This module is the only place in lib/ allowed to open files: the
   `durable-io' lint rule (S6) fails the build on any raw open_in/open_out
   elsewhere under lib/store or lib/sintra, which is what keeps the
   simulator deterministic.  (lint: allow durable-io — the seam itself) *)

type t = {
  append : string -> unit;
  rewrite : string -> unit;
  contents : unit -> string;
}

let append (d : t) (bytes : string) : unit = d.append bytes
let rewrite (d : t) (bytes : string) : unit = d.rewrite bytes
let contents (d : t) : string = d.contents ()
let size (d : t) : int = String.length (d.contents ())

let mem () : t =
  let buf = Buffer.create 1024 in
  {
    append = (fun s -> Buffer.add_string buf s);
    rewrite = (fun s -> Buffer.clear buf; Buffer.add_string buf s);
    contents = (fun () -> Buffer.contents buf);
  }

let read_file (path : string) : string =
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  end
  else ""

let write_file (path : string) (data : string) : unit =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc data)

let file (path : string) : t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (read_file path);
  {
    append =
      (fun s ->
        Buffer.add_string buf s;
        let oc =
          open_out_gen [ Open_wronly; Open_append; Open_creat; Open_binary ]
            0o644 path
        in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc s));
    rewrite =
      (fun s ->
        Buffer.clear buf;
        Buffer.add_string buf s;
        write_file path s);
    contents = (fun () -> Buffer.contents buf);
  }
