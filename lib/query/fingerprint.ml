(* Statement fingerprinting: a lexical normalizer plus a stable 64-bit
   hash, so every execution of one statement *shape* shares an id no matter
   which literals it binds.

   The normalizer re-lexes the statement text with the same token classes
   the shell uses (words, single-quoted strings, numbers, punctuation) and
   canonicalizes:
     - string and numeric literals           -> ?
     - parameter markers (? / ?3)            -> ?
     - keywords and identifiers              -> lowercase
     - whitespace                            -> one space between tokens
   Working from text rather than the AST keeps the same fingerprint
   applicable to every verb the shell accepts — select goes through
   Query.key, but insert/update/delete never build a Query.t. *)

let is_digit c = c >= '0' && c <= '9'

let is_word_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || is_digit c || c = '_' || c = '.'

let normalize text =
  let n = String.length text in
  let buf = Buffer.create n in
  let sep () =
    if Buffer.length buf > 0 then Buffer.add_char buf ' '
  in
  let i = ref 0 in
  while !i < n do
    let c = text.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '\'' then begin
      (* string literal; '' is the embedded-quote escape *)
      incr i;
      let fin = ref false in
      while not !fin && !i < n do
        if text.[!i] = '\'' then
          if !i + 1 < n && text.[!i + 1] = '\'' then i := !i + 2
          else begin
            fin := true;
            incr i
          end
        else incr i
      done;
      sep ();
      Buffer.add_char buf '?'
    end
    else if is_digit c then begin
      (* number: digits with optional fraction *)
      while !i < n && (is_digit text.[!i] || text.[!i] = '.') do
        incr i
      done;
      sep ();
      Buffer.add_char buf '?'
    end
    else if c = '?' then begin
      (* parameter marker, positional (?3) or bare *)
      incr i;
      while !i < n && is_digit text.[!i] do
        incr i
      done;
      sep ();
      Buffer.add_char buf '?'
    end
    else if is_word_char c then begin
      let start = !i in
      while !i < n && is_word_char text.[!i] do
        incr i
      done;
      sep ();
      Buffer.add_string buf
        (String.lowercase_ascii (String.sub text start (!i - start)))
    end
    else begin
      (* punctuation: one token per char *)
      sep ();
      Buffer.add_char buf c;
      incr i
    end
  done;
  Buffer.contents buf

(* FNV-1a, 64-bit: tiny, stable across runs and platforms, and good enough
   dispersion for a store keyed by a few hundred statement shapes. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let hash s =
  let h = ref fnv_offset in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h fnv_prime)
    s;
  !h

let of_text text = hash (normalize text)
let hex = Dmx_obs.Query_store.hex
