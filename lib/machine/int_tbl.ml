include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)
