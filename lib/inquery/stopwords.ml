type t = (string, unit) Hashtbl.t

let of_list words =
  let t = Hashtbl.create (List.length words * 2) in
  List.iter (fun w -> Hashtbl.replace t (String.lowercase_ascii w) ()) words;
  t

let of_file_contents contents =
  let words =
    String.split_on_char '\n' contents
    |> List.filter_map (fun line ->
           let line = String.trim line in
           if line = "" || line.[0] = '#' then None else Some line)
  in
  of_list words

let default_words =
  [
    "a"; "about"; "above"; "across"; "after"; "afterwards"; "again"; "against"; "all"; "almost";
    "alone"; "along"; "already"; "also"; "although"; "always"; "am"; "among"; "amongst"; "an";
    "and"; "another"; "any"; "anyhow"; "anyone"; "anything"; "anywhere"; "are"; "around"; "as";
    "at"; "be"; "became"; "because"; "become"; "becomes"; "becoming"; "been"; "before";
    "beforehand"; "behind"; "being"; "below"; "beside"; "besides"; "between"; "beyond"; "both";
    "but"; "by"; "can"; "cannot"; "could"; "did"; "do"; "does"; "doing"; "done"; "down"; "during";
    "each"; "either"; "else"; "elsewhere"; "enough"; "etc"; "even"; "ever"; "every"; "everyone";
    "everything"; "everywhere"; "except"; "few"; "for"; "former"; "formerly"; "from"; "further";
    "had"; "has"; "have"; "having"; "he"; "hence"; "her"; "here"; "hereafter"; "hereby"; "herein";
    "hereupon"; "hers"; "herself"; "him"; "himself"; "his"; "how"; "however"; "i"; "ie"; "if";
    "in"; "indeed"; "instead"; "into"; "is"; "it"; "its"; "itself"; "just"; "last"; "latter";
    "latterly"; "least"; "less"; "like"; "made"; "many"; "may"; "me"; "meanwhile"; "might";
    "more"; "moreover"; "most"; "mostly"; "much"; "must"; "my"; "myself"; "namely"; "neither";
    "never"; "nevertheless"; "next"; "no"; "nobody"; "none"; "noone"; "nor"; "not"; "nothing";
    "now"; "nowhere"; "of"; "off"; "often"; "on"; "once"; "one"; "only"; "onto"; "or"; "other";
    "others"; "otherwise"; "our"; "ours"; "ourselves"; "out"; "over"; "own"; "per"; "perhaps";
    "rather"; "same"; "seem"; "seemed"; "seeming"; "seems"; "several"; "she"; "should"; "since";
    "so"; "some"; "somehow"; "someone"; "something"; "sometime"; "sometimes"; "somewhere";
    "still"; "such"; "than"; "that"; "the"; "their"; "theirs"; "them"; "themselves"; "then";
    "thence"; "there"; "thereafter"; "thereby"; "therefore"; "therein"; "thereupon"; "these";
    "they"; "this"; "those"; "though"; "through"; "throughout"; "thru"; "thus"; "to"; "together";
    "too"; "toward"; "towards"; "under"; "until"; "up"; "upon"; "us"; "very"; "via"; "was"; "we";
    "well"; "were"; "what"; "whatever"; "when"; "whence"; "whenever"; "where"; "whereafter";
    "whereas"; "whereby"; "wherein"; "whereupon"; "wherever"; "whether"; "which"; "while";
    "whither"; "who"; "whoever"; "whole"; "whom"; "whose"; "why"; "will"; "with"; "within";
    "without"; "would"; "yet"; "you"; "your"; "yours"; "yourself"; "yourselves";
  ]

let default = of_list default_words

let is_stopword t word = Hashtbl.mem t word

let normalize ?stopwords ~stem term =
  match stopwords with
  | Some sw when is_stopword sw term -> None
  | _ -> Some (if stem then Stemmer.stem term else term)

let size t = Hashtbl.length t
